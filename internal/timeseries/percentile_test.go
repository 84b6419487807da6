package timeseries

import (
	"math"
	"math/rand"
	"sort"
	"testing"

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

func checkWindowPercentile(t *testing.T, s Series, w Windows, p float64) {
	t.Helper()
	in := s.Clone()
	got, want := s.WindowPercentile(w, p), refWindowPercentile(s.Clone(), w, p)
	for win := range want {
		if math.Float64bits(got[win]) != math.Float64bits(want[win]) {
			t.Fatalf("len %d, %v, p%v, window %d: selection %v (%#x), sort %v (%#x)", len(s), w, p, win,
				got[win], math.Float64bits(got[win]), want[win], math.Float64bits(want[win]))
		}
	}
	for i := range in {
		if math.Float64bits(in[i]) != math.Float64bits(s[i]) {
			t.Fatalf("WindowPercentile modified its series at %d", i)
		}
	}
}

// TestWindowPercentileSelectionMatchesSort compares the selection-based
// WindowPercentile with the sort-based reference bit for bit: heavy ties
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
// sample: 5% buckets, with NaN and -0 among them) and percentiles.
func FuzzWindowPercentile(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, 95.0, uint8(6))
	f.Add([]byte{0, 0, 0}, 50.0, uint8(1))
	f.Add([]byte{7, 254, 7, 255, 9, 9, 9, 1}, 37.5, uint8(24))
	f.Fuzz(func(t *testing.T, data []byte, p float64, perDay uint8) {
		w := Windows{PerDay: int(perDay)}
		if w.Validate() != nil || math.IsNaN(p) {
			return
		}
		s := make(Series, len(data))
		for i, b := range data {
			switch b {
			case 255:
				s[i] = math.NaN()
			case 254:
				s[i] = math.Copysign(0, -1)
			default:
				s[i] = 0.05 * float64(b%21)
			}
		}
		checkWindowPercentile(t, s, w, p)
	})
}
