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

// FuzzWindowPercentile feeds arbitrary short series (one byte per
// sample: 5% buckets, with NaN and -0 among them) and percentiles, then
// reads the same bytes as vector runs cut at an arbitrary visible prefix:
// the runs' WindowPercentile, Max, Mean and (NaN-free)
// LifetimeWindowMax must match the references over the expanded samples
// bit for bit.
func FuzzWindowPercentile(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, 95.0, uint8(6), uint16(3))
	f.Add([]byte{0, 0, 0}, 50.0, uint8(1), uint16(9))
	f.Add([]byte{7, 254, 7, 255, 9, 9, 9, 1}, 37.5, uint8(24), uint16(400))
	f.Add([]byte{3, 200, 3, 90, 7, 255, 4, 31, 4, 1, 12, 140, 254, 60, 0, 250}, 95.0, uint8(6), uint16(1000))
	f.Fuzz(func(t *testing.T, data []byte, p float64, perDay uint8, visible uint16) {
		w := Windows{PerDay: int(perDay)}
		if w.Validate() != nil || math.IsNaN(p) {
			return
		}
		s := make(Series, len(data))
		for i, b := range data {
			s[i] = fuzzSample(b)
		}
		checkWindowPercentile(t, s, w, p)
		checkRuns(t, fuzzRuns(data), int(visible), w, p)
	})
}

func fuzzSample(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Copysign(0, -1)
	}
	return 0.05 * float64(b%21)
}

// fuzzRuns reads data as (value, length) byte pairs: a run of length
// 1 + length%97 of the value in CPU, with Memory cycling through three
// levels from run to run, so CPU repeats across vector runs.
func fuzzRuns(data []byte) [resources.NumKinds]Series {
	var out [resources.NumKinds]Series
	for i := 0; i+1 < len(data); i += 2 {
		for n := 1 + int(data[i+1])%97; n > 0; n-- {
			out[resources.CPU] = append(out[resources.CPU], fuzzSample(data[i]))
			out[resources.Memory] = append(out[resources.Memory], 0.1*float64(i/2%3))
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
