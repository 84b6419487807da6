package timeseries

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/coach-oss/coach/internal/resources"
)

// mkSeries builds a days-long series whose value at each sample is
// f(day, sampleOfDay).
func mkSeries(days int, f func(day, sample int) float64) Series {
	s := make(Series, days*SamplesPerDay)
	for d := 0; d < days; d++ {
		for i := 0; i < SamplesPerDay; i++ {
			s[d*SamplesPerDay+i] = f(d, i)
		}
	}
	return s
}

func TestConstants(t *testing.T) {
	if SamplesPerHour != 12 || SamplesPerDay != 288 {
		t.Fatalf("5-minute telemetry constants wrong: %d %d", SamplesPerHour, SamplesPerDay)
	}
}

func TestCloneIndependent(t *testing.T) {
	s := Series{1, 2, 3}
	c := slices.Clone(s)
	c[0] = 99
	if s[0] != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestBasicAggregates(t *testing.T) {
	s := Series{0.1, 0.5, 0.3}
	if r := cpuRuns(s); s.Max() != 0.5 || r.Max(resources.CPU) != 0.5 || math.Abs(r.Mean(resources.CPU)-0.3) > 1e-12 {
		t.Errorf("max/mean wrong: %v %v", s.Max(), r.Mean(resources.CPU))
	}
}

func TestDaysAndDay(t *testing.T) {
	s := mkSeries(2, func(d, i int) float64 { return float64(d) })
	if s.Days() != 2 {
		t.Errorf("Days = %d", s.Days())
	}
	if len(s.Day(0)) != SamplesPerDay || s.Day(1)[0] != 1 {
		t.Error("Day slicing wrong")
	}
	if s.Day(5) != nil {
		t.Error("out-of-range day must be nil")
	}
	// Partial final day.
	partial := append(slices.Clone(s), 0.9)
	if got := partial.Day(2); len(got) != 1 || got[0] != 0.9 {
		t.Errorf("partial day = %v", got)
	}
}

func TestWindowsValidate(t *testing.T) {
	for _, w := range CommonWindowConfigs() {
		if err := w.Validate(); err != nil {
			t.Errorf("%v: %v", w, err)
		}
	}
	if err := (Windows{PerDay: 0}).Validate(); err == nil {
		t.Error("0 windows must be invalid")
	}
	if err := (Windows{PerDay: 7}).Validate(); err == nil {
		t.Error("7 windows does not divide 288 samples: must be invalid")
	}
}

func TestWindowsHoursSamples(t *testing.T) {
	w := Windows{PerDay: 6}
	if w.Hours() != 4 || w.Samples() != 48 {
		t.Errorf("6 windows: hours=%v samples=%d", w.Hours(), w.Samples())
	}
	if w.String() != "6x4h" {
		t.Errorf("String = %q", w.String())
	}
}

func TestDayWindowMax(t *testing.T) {
	// Day 0: window 0 peaks at 0.8, window 1 flat 0.2, window 2 flat 0.4.
	s := mkSeries(1, func(d, i int) float64 {
		switch {
		case i == 10:
			return 0.8
		case i < 96:
			return 0.1
		case i < 192:
			return 0.2
		default:
			return 0.4
		}
	})
	wm := s.DayWindowMax(0, Windows{PerDay: 3})
	if wm[0] != 0.8 || wm[1] != 0.2 || wm[2] != 0.4 {
		t.Errorf("DayWindowMax = %v", wm)
	}
}

func TestDayWindowMaxPartialDayNaN(t *testing.T) {
	s := make(Series, 10) // much less than one window
	wm := s.DayWindowMax(0, Windows{PerDay: 3})
	if math.IsNaN(wm[0]) {
		t.Error("window 0 has samples, must not be NaN")
	}
	if !math.IsNaN(wm[1]) || !math.IsNaN(wm[2]) {
		t.Error("empty windows must be NaN")
	}
}

func TestLifetimeWindowMax(t *testing.T) {
	// Two days: day 0 peaks 0.5 in window 0; day 1 peaks 0.7 in window 0.
	s := mkSeries(2, func(d, i int) float64 {
		if i == 0 {
			return 0.5 + 0.2*float64(d)
		}
		return 0.1
	})
	lm := cpuRuns(s).LifetimeWindowMax(Windows{PerDay: 3})[resources.CPU]
	if lm[0] != 0.7 {
		t.Errorf("lifetime window 0 max = %v, want 0.7", lm[0])
	}
	if lm[1] != 0.1 || lm[2] != 0.1 {
		t.Errorf("lifetime maxes = %v", lm)
	}
}

// Property: lifetime window max dominates every day's window max.
func TestLifetimeWindowMaxDominatesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		days := 1 + rng.Intn(4)
		r := cpuRuns(mkSeries(days, func(d, i int) float64 { return rng.Float64() }))
		s := r.Series(resources.CPU, nil)
		w := CommonWindowConfigs()[rng.Intn(7)]
		lm := r.LifetimeWindowMax(w)[resources.CPU]
		for d := 0; d < days; d++ {
			dm := s.DayWindowMax(d, w)
			for win := range dm {
				if !math.IsNaN(dm[win]) && dm[win] > lm[win]+1e-12 {
					t.Fatalf("day %d window %d max %v > lifetime %v", d, win, dm[win], lm[win])
				}
			}
		}
	}
}

// Property: a window's percentile never exceeds its lifetime max.
func TestWindowPercentileBoundedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		s := mkSeries(2, func(d, i int) float64 { return rng.Float64() })
		w := Windows{PerDay: 6}
		pct := cpuRuns(s).WindowPercentile(w, 95)[resources.CPU]
		lm := cpuRuns(s).LifetimeWindowMax(w)[resources.CPU]
		for win := range pct {
			if pct[win] > lm[win]+1e-12 {
				t.Fatalf("window %d P95 %v > max %v", win, pct[win], lm[win])
			}
		}
	}
}

func TestWindowPercentileConstantSeries(t *testing.T) {
	s := mkSeries(1, func(d, i int) float64 { return 0.42 })
	for _, p := range cpuRuns(s).WindowPercentile(Windows{PerDay: 6}, 95)[resources.CPU] {
		if math.Abs(p-0.42) > 1e-9 {
			t.Fatalf("constant series percentile = %v", p)
		}
	}
}

func TestPeaksValleysFlatSeries(t *testing.T) {
	s := mkSeries(1, func(d, i int) float64 { return 0.33 })
	_, _, has := s.PeaksValleys(0, Windows{PerDay: 6})
	if has {
		t.Error("flat series must have no peaks/valleys (within one 5% bucket)")
	}
}

func TestPeaksValleysDetection(t *testing.T) {
	// Window 2 peaks at 0.6; everything else at 0.1.
	w := Windows{PerDay: 6}
	s := mkSeries(1, func(d, i int) float64 {
		if i/w.Samples() == 2 {
			return 0.6
		}
		return 0.1
	})
	peaks, valleys, has := s.PeaksValleys(0, w)
	if !has {
		t.Fatal("peaks must be detected")
	}
	if !peaks[2] {
		t.Error("window 2 must be a peak")
	}
	for win, p := range peaks {
		if win != 2 && p {
			t.Errorf("window %d wrongly a peak", win)
		}
	}
	for win, v := range valleys {
		if win == 2 && v {
			t.Error("peak window cannot be a valley")
		}
		if win != 2 && !v {
			t.Errorf("window %d must be a valley", win)
		}
	}
}

func TestPeaksValleysWithinBucketIsNone(t *testing.T) {
	// 0.17 vs 0.19 both bucket to 0.20: no peak.
	w := Windows{PerDay: 2}
	s := mkSeries(1, func(d, i int) float64 {
		if i < w.Samples() {
			return 0.17
		}
		return 0.19
	})
	_, _, has := s.PeaksValleys(0, w)
	if has {
		t.Error("window maxima within one bucket must count as None")
	}
}

func TestWindowSavings(t *testing.T) {
	// Lifetime max 0.75; windows at 0.30, 0.75, 0.55 -> savings 0.45, 0, 0.20
	// (the paper's §2.3 worked example).
	w := Windows{PerDay: 3}
	s := mkSeries(1, func(d, i int) float64 {
		switch i / w.Samples() {
		case 0:
			return 0.30
		case 1:
			return 0.75
		default:
			return 0.55
		}
	})
	sv := s.WindowSavings(0, w, 0.75)
	want := []float64{0.45, 0, 0.20}
	for i := range want {
		if math.Abs(sv[i]-want[i]) > 1e-12 {
			t.Errorf("savings[%d] = %v, want %v", i, sv[i], want[i])
		}
	}
}

// Property: savings are non-negative and bounded by the lifetime max.
func TestWindowSavingsBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := mkSeries(1, func(d, i int) float64 { return rng.Float64() })
		lm := s.Max()
		for _, sv := range s.WindowSavings(0, Windows{PerDay: 6}, lm) {
			if sv < 0 || sv > lm+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestUtilRange(t *testing.T) {
	s := make(Series, 100)
	for i := range s {
		s[i] = float64(i) / 100
	}
	r := s.UtilRange(5, 95)
	if r < 0.85 || r > 0.95 {
		t.Errorf("P95-P5 of ramp = %v", r)
	}
}

// TestCursorSeekInto checks SeekInto against Seek: it lands where Seek
// lands, copies that run's codes and the ones after it, and with an
// empty dst only moves the cursor. On dense runs the copy is the next
// samples; past the last sample both clamp to it.
func TestCursorSeekInto(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var dense, sparse [resources.NumKinds]Series
	for k := range dense {
		dense[k], sparse[k] = make(Series, 40), make(Series, 40)
		for i := range dense[k] {
			dense[k][i] = rng.Float64()
			sparse[k][i] = float64(i/7) / 8
		}
	}
	for name, runs := range map[string]Runs{"dense": NewRuns(dense), "sparse": NewRuns(sparse)} {
		const start = 100
		a, b := runs.CursorAt(start, start), runs.CursorAt(start, start)
		var dst [5]Codes
		for tick := start; tick < start+runs.Len()+3; tick += 2 {
			want := a.Seek(tick)
			if n := b.SeekInto(tick, nil); n != 0 {
				t.Fatalf("%s tick %d: SeekInto with no room copied %d", name, tick, n)
			}
			n := b.SeekInto(tick, dst[:])
			j := runs.find(min(tick-start, runs.Len()-1))
			if n != min(len(dst), runs.NumRuns()-j) || dst[0].Vector() != want {
				t.Fatalf("%s tick %d: copied %d, dst[0] %v; want %d, %v", name, tick, n, dst[0], min(len(dst), runs.NumRuns()-j), want)
			}
			for i := range dst[:n] {
				if dst[i] != runs.Code(j+i) {
					t.Fatalf("%s tick %d: dst[%d] = %v, want run %d's %v", name, tick, i, dst[i], j+i, runs.Code(j+i))
				}
				if runs.Offsets() == nil && tick+i < start+runs.Len() && dst[i].Vector() != runs.At(tick-start+i) {
					t.Fatalf("%s tick %d: dst[%d] is not sample %d", name, tick, i, tick-start+i)
				}
			}
			na, oka := a.Next()
			if nb, okb := b.Next(); na != nb || oka != okb {
				t.Fatalf("%s tick %d: Next after SeekInto (%d, %v), after Seek (%d, %v)", name, tick, nb, okb, na, oka)
			}
		}
	}
}
