package mllstm

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/pin.txt from the current code")

func seq(vals ...float64) [][]float64 {
	out := make([][]float64, len(vals))
	for i, v := range vals {
		out[i] = []float64{v, v}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{InputDim: 0, HiddenDim: 4}); err == nil {
		t.Error("zero input dim must fail")
	}
	if _, err := New(Config{InputDim: 2, HiddenDim: 0}); err == nil {
		t.Error("zero hidden dim must fail")
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestPredictEmptySequence(t *testing.T) {
	l, _ := New(DefaultConfig())
	if got := l.Predict(nil); got != 0 {
		t.Errorf("empty sequence predict = %v", got)
	}
}

func TestPredictDeterministic(t *testing.T) {
	a, _ := New(DefaultConfig())
	b, _ := New(DefaultConfig())
	s := seq(0.1, 0.2, 0.3, 0.4, 0.5)
	if a.Predict(s) != b.Predict(s) {
		t.Error("same seed must give identical predictions")
	}
}

func TestTrainConvergesOnConstant(t *testing.T) {
	l, _ := New(DefaultConfig())
	s := seq(0.5, 0.5, 0.5, 0.5, 0.5)
	for i := 0; i < 400; i++ {
		l.Train(s, 0.5)
	}
	if got := l.Predict(s); math.Abs(got-0.5) > 0.05 {
		t.Errorf("after training on constant 0.5, predict = %v", got)
	}
}

func TestTrainLossDecreases(t *testing.T) {
	l, _ := New(DefaultConfig())
	// A small dataset: next value continues a ramp.
	data := []struct {
		s [][]float64
		y float64
	}{
		{seq(0.1, 0.2, 0.3, 0.4, 0.5), 0.6},
		{seq(0.2, 0.3, 0.4, 0.5, 0.6), 0.7},
		{seq(0.5, 0.4, 0.3, 0.2, 0.1), 0.0},
		{seq(0.6, 0.5, 0.4, 0.3, 0.2), 0.1},
	}
	loss := func() float64 {
		var sum float64
		for _, d := range data {
			e := l.Predict(d.s) - d.y
			sum += e * e
		}
		return sum
	}
	before := loss()
	for epoch := 0; epoch < 300; epoch++ {
		for _, d := range data {
			l.Train(d.s, d.y)
		}
	}
	after := loss()
	if after >= before/2 {
		t.Errorf("loss did not halve: before %v, after %v", before, after)
	}
}

func TestTrainDistinguishesPatterns(t *testing.T) {
	// Rising sequences continue high; falling sequences continue low.
	l, _ := New(DefaultConfig())
	rise := seq(0.1, 0.3, 0.5, 0.7, 0.9)
	fall := seq(0.9, 0.7, 0.5, 0.3, 0.1)
	for i := 0; i < 500; i++ {
		l.Train(rise, 1.0)
		l.Train(fall, 0.0)
	}
	if pr, pf := l.Predict(rise), l.Predict(fall); pr-pf < 0.5 {
		t.Errorf("failed to separate patterns: rise=%v fall=%v", pr, pf)
	}
}

func TestTrainReturnsPreUpdateError(t *testing.T) {
	l, _ := New(DefaultConfig())
	s := seq(0.2, 0.2, 0.2, 0.2, 0.2)
	pred := l.Predict(s)
	if got := l.Train(s, 0.9); math.Abs(got-(pred-0.9)) > 1e-12 {
		t.Errorf("Train returned %v, want %v", got, pred-0.9)
	}
}

func TestTrainEmptySequenceNoop(t *testing.T) {
	l, _ := New(DefaultConfig())
	before := slices.Clone(l.p.slab)
	if got := l.Train(nil, 1); got != 0 {
		t.Errorf("empty train = %v", got)
	}
	if !slices.Equal(l.p.slab, before) {
		t.Error("empty train must not move the parameters")
	}
}

func TestMemoryBytesScale(t *testing.T) {
	l, _ := New(DefaultConfig())
	// Paper §4.5: each local predictor takes ~25KB; our default network
	// must be in the same ballpark (small).
	if mb := l.MemoryBytes(); mb <= 0 || mb > 64<<10 {
		t.Errorf("MemoryBytes = %d, want small (<64KiB)", mb)
	}
}

func TestGradientClippingStaysFinite(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LearningRate = 1 // aggressive
	l, _ := New(cfg)
	s := seq(1, 1, 1, 1, 1)
	for i := 0; i < 100; i++ {
		l.Train(s, 1000) // extreme target
	}
	if p := l.Predict(s); math.IsNaN(p) || math.IsInf(p, 0) {
		t.Errorf("network diverged to %v despite clipping", p)
	}
}

func TestVariableLengthSequences(t *testing.T) {
	l, _ := New(DefaultConfig())
	for i := 1; i <= 6; i++ {
		vals := make([]float64, i)
		for j := range vals {
			vals[j] = 0.1 * float64(j)
		}
		l.Train(seq(vals...), 0.5)
		if p := l.Predict(seq(vals...)); math.IsNaN(p) {
			t.Fatalf("NaN for length-%d sequence", i)
		}
	}
}

// pinInput is a deterministic utilization-like signal in [0, 1): a slow
// sinusoid plus xorshift noise.
type pinInput struct {
	k     int
	state uint64
}

func (p *pinInput) next() float64 {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	noise := float64(p.state>>11) / (1 << 53)
	p.k++
	return 0.5 + 0.3*math.Sin(0.37*float64(p.k)) + 0.15*(noise-0.5)
}

// pinSequence runs n online steps of a network built from cfg and
// returns the bits of every Train result followed by a Predict on the
// same sequence. Sequence lengths cycle through 1..8, so any scratch the
// network keeps is grown and then reused at shorter lengths.
func pinSequence(t *testing.T, cfg Config, n int) []uint64 {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := &pinInput{state: 0x9e3779b97f4a7c15}
	out := make([]uint64, 0, 2*n)
	for i := 0; i < n; i++ {
		T := 1 + (i*5)%8
		s := make([][]float64, T)
		for j := range s {
			s[j] = make([]float64, cfg.InputDim)
			for k := range s[j] {
				s[j][k] = in.next()
			}
		}
		out = append(out, math.Float64bits(l.Train(s, in.next())))
		out = append(out, math.Float64bits(l.Predict(s)))
	}
	return out
}

// TestRecordedSequence pins the network's arithmetic bit for bit: 400
// steps of the default network and 100 of an odd-shaped one with
// clipping off, each value compared by its bits against the recording.
func TestRecordedSequence(t *testing.T) {
	got := pinSequence(t, DefaultConfig(), 400)
	got = append(got, pinSequence(t, Config{InputDim: 3, HiddenDim: 5, LearningRate: 0.2, Seed: 11}, 100)...)
	path := filepath.Join("testdata", "pin.txt")
	if *update {
		var b []byte
		for _, v := range got {
			b = fmt.Appendf(b, "%016x\n", v)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64 at the default GOAMD64, where Go emits no fused multiply-add; other targets may round differently")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		v, err := strconv.ParseUint(sc.Text(), 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	if len(want) != len(got) {
		t.Fatalf("recording has %d values, run produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d (step %d, %s) = %v, recorded %v", i, i/2, [2]string{"Train", "Predict"}[i%2],
				math.Float64frombits(got[i]), math.Float64frombits(want[i]))
		}
	}
}

func TestTrainPredictDoNotAllocate(t *testing.T) {
	l, _ := New(DefaultConfig())
	s := seq(0.1, 0.4, 0.2, 0.6, 0.3)
	l.Train(s, 0.5) // grow the scratch
	if n := testing.AllocsPerRun(100, func() { l.Train(s, 0.5) }); n != 0 {
		t.Errorf("Train allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { l.Predict(s) }); n != 0 {
		t.Errorf("Predict allocates %v times per call", n)
	}
}

var sink float64

func BenchmarkLSTMTrain(b *testing.B) {
	l, _ := New(DefaultConfig())
	s := seq(0.1, 0.4, 0.2, 0.6, 0.3)
	l.Train(s, 0.5) // grow the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = l.Train(s, 0.5)
	}
}

func BenchmarkLSTMPredict(b *testing.B) {
	l, _ := New(DefaultConfig())
	s := seq(0.1, 0.4, 0.2, 0.6, 0.3)
	l.Predict(s) // grow the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = l.Predict(s)
	}
}
