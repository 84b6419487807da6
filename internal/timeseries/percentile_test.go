package timeseries

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/stats"
)

// refWindowPercentile is WindowPercentile as it was before selection: one
// bucket per window, each copied, fully sorted and interpolated.
func refWindowPercentile(s Series, w Windows, p float64) []float64 {
	buckets := make([][]float64, w.PerDay)
	for i, v := range s {
		win := (i % SamplesPerDay) / w.Samples()
		buckets[win] = append(buckets[win], v)
	}
	out := make([]float64, w.PerDay)
	for win, xs := range buckets {
		sort.Float64s(xs)
		out[win] = stats.PercentileSorted(xs, p)
	}
	return out
}

// refLifetimeWindowMax is LifetimeWindowMax as it was over per-kind
// series: each day's DayWindowMax, folded across days.
func refLifetimeWindowMax(s Series, w Windows) []float64 {
	out := make([]float64, w.PerDay)
	days := s.Days()
	if days == 0 && len(s) > 0 {
		days = 1
	}
	for win := range out {
		out[win] = math.NaN()
	}
	for d := 0; d < days; d++ {
		dm := s.DayWindowMax(d, w)
		for win, v := range dm {
			if math.IsNaN(v) {
				continue
			}
			if math.IsNaN(out[win]) || v > out[win] {
				out[win] = v
			}
		}
	}
	for win, v := range out {
		if math.IsNaN(v) {
			out[win] = 0
		}
	}
	return out
}

// cpuRuns run-encodes s as the CPU kind of otherwise zero vectors: every
// sample its own run when no two neighbours are equal, runs otherwise.
func cpuRuns(s Series) Runs {
	zeros := make(Series, len(s))
	return NewRuns([resources.NumKinds]Series{s, zeros, zeros, zeros})
}

// checkWindowPercentile holds the selection over samples, and over
// their runs of codes, to the sort-based reference over the samples and
// over the runs' float view respectively, bit for bit.
func checkWindowPercentile(t *testing.T, s Series, w Windows, p float64) {
	t.Helper()
	in := slices.Clone(s)
	r := cpuRuns(s)
	for name, got := range map[string][2][]float64{
		"samples": {s.WindowPercentile(w, p), refWindowPercentile(slices.Clone(s), w, p)},
		"runs":    {r.WindowPercentile(w, p)[resources.CPU], refWindowPercentile(r.Series(resources.CPU, nil), w, p)},
	} {
		got, want := got[0], got[1]
		for win := range want {
			if math.Float64bits(got[win]) != math.Float64bits(want[win]) {
				t.Fatalf("len %d, %v, p%v, window %d: selection over %s %v (%#x), sort %v (%#x)", len(s), w, p, win,
					name, got[win], math.Float64bits(got[win]), want[win], math.Float64bits(want[win]))
			}
		}
	}
	for i := range in {
		if math.Float64bits(in[i]) != math.Float64bits(s[i]) {
			t.Fatalf("WindowPercentile modified its series at %d", i)
		}
	}
}

// TestWindowPercentileSelectionMatchesSort compares the selection-based
// WindowPercentile, over samples and over runs, with the sort-based
// reference bit for bit: heavy ties
// (5% buckets), continuous values, lengths from one sample to a partial
// last day, every window split, and series holding a NaN or a -0.
func TestWindowPercentileSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lengths := []int{0, 1, 2, 47, 48, 49, SamplesPerDay - 1, SamplesPerDay, SamplesPerDay + 1,
		3*SamplesPerDay + 100, 14 * SamplesPerDay}
	for _, n := range lengths {
		for variant := 0; variant < 4; variant++ {
			s := make(Series, n)
			for i := range s {
				switch variant {
				case 0: // ties
					s[i] = 0.05 * float64(rng.Intn(21))
				case 1: // distinct
					s[i] = rng.Float64()
				case 2: // sorted runs, the shape of a ramping VM
					s[i] = float64(i%SamplesPerDay) / SamplesPerDay
				case 3: // constant
					s[i] = 0.35
				}
			}
			for _, poison := range []float64{0, math.NaN(), math.Copysign(0, -1)} {
				if poison != 0 || math.Signbit(poison) {
					if n == 0 {
						continue
					}
					s[rng.Intn(n)] = poison
				}
				for _, w := range CommonWindowConfigs() {
					for _, p := range []float64{0, 50, 95, 100} {
						checkWindowPercentile(t, s, w, p)
					}
				}
			}
		}
	}
}

// FuzzWindowPercentile feeds arbitrary short series (two bytes per
// sample: any code from 0 to CodeScale, or NaN or -0) and percentiles,
// then reads the same bytes as vector runs cut at an arbitrary visible
// prefix: the runs' WindowPercentile, Max, Mean and (NaN-free)
// LifetimeWindowMax must match the references over the expanded samples
// bit for bit. A NaN percentile must read NaN in every window that holds
// a sample.
func FuzzWindowPercentile(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, 95.0, uint8(6), uint16(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, 50.0, uint8(1), uint16(9))
	f.Add([]byte{7, 1, 254, 0, 7, 2, 255, 0, 9, 9, 9, 10, 1, 0}, 37.5, uint8(24), uint16(400))
	f.Add([]byte{3, 200, 3, 3, 90, 7, 255, 4, 31, 4, 1, 12, 140, 254, 60, 0, 250, 9}, 95.0, uint8(6), uint16(1000))
	f.Add([]byte{0, 0, 1, 39, 16, 0, 39, 16, 20}, 99.9, uint8(1), uint16(500))
	f.Add([]byte{0, 10, 5, 1, 0, 3}, math.NaN(), uint8(6), uint16(10))
	f.Fuzz(func(t *testing.T, data []byte, p float64, perDay uint8, visible uint16) {
		w := Windows{PerDay: int(perDay)}
		if w.Validate() != nil {
			return
		}
		if math.IsNaN(p) {
			r := NewRuns(fuzzRuns(data)).Prefix(int(visible))
			for k, pcts := range r.WindowPercentile(w, p) {
				for win, x := range pcts {
					if held := r.Len() > win*w.Samples(); held != math.IsNaN(x) {
						t.Fatalf("%d samples, %v, p NaN: %v window %d reads %v", r.Len(), w, resources.Kind(k), win, x)
					}
				}
			}
			return
		}
		s := make(Series, len(data)/2)
		for i := range s {
			s[i] = fuzzSample(data[2*i], data[2*i+1])
		}
		checkWindowPercentile(t, s, w, p)
		checkRuns(t, fuzzRuns(data), int(visible), w, p)
	})
}

// fuzzSample reads two bytes as a sample: NaN or -0 when hi is 255 or
// 254, otherwise the code (hi<<8 | lo) mod CodeScale+1 as a fraction.
func fuzzSample(hi, lo byte) float64 {
	switch hi {
	case 255:
		return math.NaN()
	case 254:
		return math.Copysign(0, -1)
	}
	return Frac(uint16((int(hi)<<8 | int(lo)) % (CodeScale + 1)))
}

// fuzzRuns reads data as (value, value, length) byte triples: a run of
// length 1 + length%97 of the sample the two value bytes read as in CPU,
// with Memory cycling through three levels from run to run, so CPU
// repeats across vector runs.
func fuzzRuns(data []byte) [resources.NumKinds]Series {
	var out [resources.NumKinds]Series
	for i := 0; i+2 < len(data); i += 3 {
		for n := 1 + int(data[i+2])%97; n > 0; n-- {
			out[resources.CPU] = append(out[resources.CPU], fuzzSample(data[i], data[i+1]))
			out[resources.Memory] = append(out[resources.Memory], 0.1*float64(i/3%3))
		}
	}
	out[resources.Network] = make(Series, len(out[resources.CPU]))
	out[resources.SSD] = out[resources.Network]
	return out
}

// checkRuns run-encodes util, cuts the runs at visible (mod the length)
// and compares every run reader with its reference over each kind's
// expanded float view, bit for bit. The float view is each sample
// rounded to its nearest code, and Mean is the exact mean of the codes,
// rounded once.
func checkRuns(t *testing.T, util [resources.NumKinds]Series, visible int, w Windows, p float64) {
	t.Helper()
	visible %= len(util[resources.CPU]) + 1
	r := NewRuns(util).Prefix(visible)
	pcts, maxes := r.WindowPercentile(w, p), r.LifetimeWindowMax(w)
	for _, k := range resources.Kinds {
		s := make(Series, visible)
		sum := new(big.Rat)
		for i, x := range util[k][:visible] {
			c := ToCode(x)
			s[i] = float64(c) / CodeScale
			sum.Add(sum, big.NewRat(int64(c), CodeScale))
		}
		mean := 0.0
		if visible > 0 {
			mean, _ = sum.Quo(sum, big.NewRat(int64(visible), 1)).Float64()
		}
		same := func(what string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d samples in %d runs, %v, p%v, %v: %s[%d] runs %v (%#x), samples %v (%#x)", visible, r.NumRuns(), w, p,
						k, what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
		same("WindowPercentile", pcts[k], refWindowPercentile(slices.Clone(s), w, p))
		if !slices.ContainsFunc(s, math.IsNaN) {
			same("LifetimeWindowMax", maxes[k], refLifetimeWindowMax(s, w))
		}
		same("Max, Mean", []float64{r.Max(k), r.Mean(k)}, []float64{stats.Max(s), mean})
		same("Series", r.Series(k, nil), s)
	}
}

// benchRuns returns a 14-day VM: dense, every kind noisy at every sample
// (a diurnal CPU), like the capacity preset's VMs, or sparse, runs of 1 to 24 samples at random
// levels (a VM whose utilization steps).
func benchRuns(dense bool) Runs {
	rng := rand.New(rand.NewSource(7))
	var s [resources.NumKinds]Series
	n := 14 * SamplesPerDay
	for k := range s {
		s[k] = make(Series, n)
	}
	for i, left := 0, 0; i < n; i, left = i+1, left-1 {
		day := 0.5 + 0.3*math.Sin(2*math.Pi*float64(i%SamplesPerDay)/SamplesPerDay)
		switch {
		case dense:
			s[resources.CPU][i] = day + 0.2*rng.Float64()
			s[resources.Memory][i] = 0.6 + 0.1*rng.Float64()
			s[resources.SSD][i] = 0.1 * rng.Float64()
		case left <= 0:
			left = 1 + rng.Intn(24)
			s[resources.CPU][i] = day * rng.Float64()
			s[resources.Memory][i] = 0.4 + 0.2*rng.Float64()
		default:
			s[resources.CPU][i], s[resources.Memory][i] = s[resources.CPU][i-1], s[resources.Memory][i-1]
		}
		s[resources.Network][i] = s[resources.CPU][i] / 3
	}
	return NewRuns(s)
}

// benchSink keeps BenchmarkWindowPercentile's results live.
var benchSink [resources.NumKinds][]float64

// BenchmarkWindowPercentile times one P95 over Coach's 6x4h windows, all
// kinds, of a dense and of a sparse 14-day VM.
func BenchmarkWindowPercentile(b *testing.B) {
	for _, dense := range []bool{true, false} {
		r := benchRuns(dense)
		if (r.Offsets() == nil) != dense {
			b.Fatalf("dense %v VM has %d runs in %d samples", dense, r.NumRuns(), r.Len())
		}
		name := map[bool]string{true: "dense", false: "sparse"}[dense]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = r.WindowPercentile(Windows{PerDay: 6}, 95)
			}
		})
	}
}

// selectPercentile is the p-th percentile of codes by quickselect, the
// way WindowPercentile found it before it counted: stats.SelectKth to
// the lo-th order statistic, the least code right of it for the
// (lo+1)-th.
func selectPercentile(codes []uint16, p float64) float64 {
	xs := slices.Clone(codes)
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case p <= 0:
		return Frac(slices.Min(xs))
	case p >= 100:
		return Frac(slices.Max(xs))
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	stats.SelectKth(xs, lo)
	if float64(lo) == rank {
		return Frac(xs[lo])
	}
	frac := rank - float64(lo)
	return Frac(xs[lo])*(1-frac) + Frac(slices.Min(xs[lo+1:]))*frac
}

// repeat returns n copies of x.
func repeat(x uint16, n int) []uint16 {
	xs := make([]uint16, n)
	for i := range xs {
		xs[i] = x
	}
	return xs
}

// TestCountsPercentileMatchesSelect holds the counting select to
// selectPercentile bit for bit, with the codes counted one sample at a
// time (addWindow) and as weighted runs (add), and requires the counts to
// be all zero after every select: the extreme codes, one and two
// samples, all-equal input, neighbouring codes in one bucket, order
// statistics a whole empty bucket or more apart, and random codes.
func TestCountsPercentileMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	random := func(n, lo, hi int) []uint16 {
		xs := make([]uint16, n)
		for i := range xs {
			xs[i] = uint16(lo + rng.Intn(hi-lo+1))
		}
		return xs
	}
	cases := []struct {
		name  string
		codes []uint16
	}{
		{"zero", []uint16{0}},
		{"full", []uint16{CodeScale}},
		{"two", []uint16{CodeScale, 0}},
		{"two equal", []uint16{77, 77}},
		{"all equal", repeat(4321, 500)},
		{"all zero", make([]uint16, 300)},
		{"neighbours", []uint16{128, 129, 129, 130, 255, 255, 128}},
		{"bucket gap", append(repeat(5, 95), repeat(5+3<<bucketShift, 5)...)},
		{"range gap", append(random(60, 0, 127), random(3, CodeScale-127, CodeScale)...)},
		{"extremes", append(repeat(0, 50), repeat(CodeScale, 50)...)},
		{"random", random(1000, 0, CodeScale)},
		{"random narrow", random(2016, 3000, 3300)},
		{"random tiny", random(3, 0, CodeScale)},
		{"bucket edges", []uint16{127, 128, 255, 256, 9983, 9984, 9999, 10000}},
		{"top bucket", random(40, 9984, CodeScale)},
		{"one below edge", append(repeat(511, 19), 512)},
	}
	c := new(counts)
	for _, tc := range cases {
		name, codes := tc.name, tc.codes
		vs := make([]Codes, len(codes))
		for i, x := range codes {
			vs[i][resources.Memory] = x
		}
		for _, p := range []float64{0, 1, 50, 95, 99.9, 100, -3, 250, math.Inf(1)} {
			want := selectPercentile(codes, p)
			c.addWindow(vs, int(resources.Memory), 0, SamplesPerDay)
			samples := c.percentile(p)
			c.clearWindow()
			var l []codeRun
			for i := 0; i < len(codes); {
				run := 1 + rng.Intn(4)
				for i+run > len(codes) || slices.ContainsFunc(codes[i:i+run], func(x uint16) bool { return x != codes[i] }) {
					run--
				}
				c.add(codes[i], uint32(run))
				l = append(l, codeRun{c: codes[i], n: uint32(run)})
				i += run
			}
			runs := c.percentile(p)
			c.clearRuns(l)
			for how, got := range map[string]float64{"samples": samples, "runs": runs} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s, p%v, counted as %s: %v, quickselect %v", name, p, how, got, want)
				}
			}
			if *c != (counts{}) {
				t.Fatalf("%s, p%v: counts not zero after percentile and clearing", name, p)
			}
		}
	}
	l := []codeRun{{c: 9000, n: 2}, {c: 31, n: 1}}
	for _, run := range l {
		c.add(run.c, run.n)
	}
	if got := c.percentile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("NaN percentile reads %v", got)
	}
	c.clearRuns(l)
	if got := c.percentile(95); got != 0 {
		t.Errorf("percentile of nothing reads %v", got)
	}
}
