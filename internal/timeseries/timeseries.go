// Package timeseries models the 5-minute resource-utilization telemetry the
// paper's characterization and scheduling are built on (§2 methodology:
// maximum utilization captured at 5-minute intervals) and the time-window
// aggregation Coach schedules with (§3.3).
package timeseries

import (
	"fmt"
	"math"

	"github.com/coach-oss/coach/internal/stats"
)

// Telemetry granularity constants. The platform's long-term store keeps
// one maximum-utilization sample per 5 minutes.
const (
	SampleMinutes  = 5
	SamplesPerHour = 60 / SampleMinutes
	SamplesPerDay  = 24 * SamplesPerHour
)

// Series is a sequence of 5-minute utilization samples, each the maximum
// utilization observed in its interval, expressed as a fraction of the
// VM's allocation in [0, 1]. Sample 0 is the first interval after the VM's
// allocation time.
type Series []float64

// Max returns the lifetime maximum utilization, 0 for an empty series.
func (s Series) Max() float64 { return stats.Max(s) }

// UtilRange returns the P(hi) - P(lo) spread, the paper's utilization
// range metric (Fig. 6 uses P95-P5).
func (s Series) UtilRange(lo, hi float64) float64 { return stats.Range(s, lo, hi) }

// Days returns the number of complete days covered by the series.
func (s Series) Days() int { return len(s) / SamplesPerDay }

// Day returns the samples of day d (0-based). The final, possibly partial,
// day is returned as-is; an out-of-range day yields an empty slice.
func (s Series) Day(d int) Series {
	lo := d * SamplesPerDay
	if lo >= len(s) {
		return nil
	}
	hi := lo + SamplesPerDay
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// Windows describes how each day is split into equal time windows
// (paper Fig. 7 uses 3x8h; Coach's default configuration is 6x4h, §3.3).
type Windows struct {
	PerDay int
}

// Hours returns the length of each window in hours.
func (w Windows) Hours() float64 { return 24 / float64(w.PerDay) }

// Samples returns the number of 5-minute samples per window.
func (w Windows) Samples() int { return SamplesPerDay / w.PerDay }

// Validate reports an error unless the window count divides a day evenly
// at the 5-minute sample granularity.
func (w Windows) Validate() error {
	if w.PerDay < 1 || w.PerDay > SamplesPerDay {
		return fmt.Errorf("timeseries: %d windows per day out of range [1,%d]", w.PerDay, SamplesPerDay)
	}
	if SamplesPerDay%w.PerDay != 0 {
		return fmt.Errorf("timeseries: %d windows per day does not divide %d samples", w.PerDay, SamplesPerDay)
	}
	return nil
}

func (w Windows) String() string {
	return fmt.Sprintf("%dx%gh", w.PerDay, w.Hours())
}

// CommonWindowConfigs are the per-day window splits studied in Fig. 11:
// 1x24h, 2x12h, 4x6h, 6x4h, 8x3h, 12x2h and 24x1h.
func CommonWindowConfigs() []Windows {
	return []Windows{{1}, {2}, {4}, {6}, {8}, {12}, {24}}
}

// DayWindowMax returns, for day d, the maximum utilization in each of the
// w.PerDay windows (the paper's "current time window max", Fig. 7).
// Windows with no samples (partial final day) report NaN.
func (s Series) DayWindowMax(d int, w Windows) []float64 {
	day := s.Day(d)
	out := make([]float64, w.PerDay)
	per := w.Samples()
	for win := 0; win < w.PerDay; win++ {
		lo := win * per
		if lo >= len(day) {
			out[win] = math.NaN()
			continue
		}
		hi := lo + per
		if hi > len(day) {
			hi = len(day)
		}
		out[win] = stats.Max(day[lo:hi])
	}
	return out
}

// WindowPercentile returns, per window, the p-th percentile of all samples
// falling in that window across every day. Coach uses this (e.g., P95) to
// size the guaranteed (PA) portion per formula (1) of §3.3.
func (s Series) WindowPercentile(w Windows, p float64) []float64 {
	per := w.Samples()
	out := make([]float64, w.PerDay)
	// One buffer, refilled per window with that window's slice of each day.
	buf := make([]float64, 0, (len(s)/SamplesPerDay+1)*per)
	for win := range out {
		buf = buf[:0]
		for lo := win * per; lo < len(s); lo += SamplesPerDay {
			buf = append(buf, s[lo:min(lo+per, len(s))]...)
		}
		out[win] = stats.PercentileInPlace(buf, p)
	}
	return out
}

// PeakBucket is the 5% rounding the paper applies before comparing window
// maxima ("rounded to 5% buckets (e.g., 17.3 -> 20.0%)", Fig. 7).
const PeakBucket = 0.05

// PeaksValleys applies the paper's peak/valley definition (§2.3, Fig. 8)
// to day d: a VM has a peak (and valley) that day if the difference between
// the bucketed window maxima is at least one 5% bucket. Every window whose
// bucketed maximum equals the day's maximum (minimum) is a peak (valley).
// has is false when the day's utilization stays within one bucket, i.e.,
// the VM counts as "None" for that day.
func (s Series) PeaksValleys(d int, w Windows) (peaks, valleys []bool, has bool) {
	wm := s.DayWindowMax(d, w)
	peaks = make([]bool, w.PerDay)
	valleys = make([]bool, w.PerDay)
	hi, lo := math.Inf(-1), math.Inf(1)
	for _, v := range wm {
		if math.IsNaN(v) {
			continue
		}
		b := stats.BucketUp(v, PeakBucket)
		if b > hi {
			hi = b
		}
		if b < lo {
			lo = b
		}
	}
	if math.IsInf(hi, -1) || hi-lo < PeakBucket-1e-12 {
		return peaks, valleys, false
	}
	for win, v := range wm {
		if math.IsNaN(v) {
			continue
		}
		b := stats.BucketUp(v, PeakBucket)
		if b >= hi-1e-12 {
			peaks[win] = true
		}
		if b <= lo+1e-12 {
			valleys[win] = true
		}
	}
	return peaks, valleys, true
}

// WindowSavings returns, per window of day d, the utilization fraction
// saved by allocating the day's window maximum instead of the lifetime
// maximum (Fig. 10's metric): saved[t] = lifetimeMax - windowMax[t],
// clamped at zero.
func (s Series) WindowSavings(d int, w Windows, lifetimeMax float64) []float64 {
	wm := s.DayWindowMax(d, w)
	out := make([]float64, len(wm))
	for i, v := range wm {
		if math.IsNaN(v) {
			continue
		}
		if sv := lifetimeMax - v; sv > 0 {
			out[i] = sv
		}
	}
	return out
}
