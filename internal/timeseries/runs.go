package timeseries

import (
	"math"
	"slices"
	"sync"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/stats"
)

// Runs is a VM's utilization stored as vector runs: run j holds one
// fraction per resource kind from its first sample up to the next run's,
// and a new run begins wherever any kind's sample differs, bit for bit,
// from the previous one. offs holds the ascending run starts (offs[0] ==
// 0), except that it is nil when every sample is its own run: run j then
// starts at sample j, so a series that changes every sample costs no
// more than its samples. The zero value is an empty series.
type Runs struct {
	offs []int32
	vals []resources.Vector
	n    int
}

// NewRuns run-encodes one equally long series per kind; it keeps no
// reference to them.
func NewRuns(s [resources.NumKinds]Series) Runs {
	n, runs := len(s[0]), 0
	for i := 0; i < n; i++ {
		if starts(&s, i) {
			runs++
		}
	}
	r := Runs{vals: make([]resources.Vector, runs), n: n}
	if runs < n {
		r.offs = make([]int32, 0, runs)
	}
	for i, j := 0, 0; i < n; i++ {
		if r.offs == nil || starts(&s, i) {
			r.vals[j] = resources.Vector{s[0][i], s[1][i], s[2][i], s[3][i]}
			if r.offs != nil {
				r.offs = append(r.offs, int32(i))
			}
			j++
		}
	}
	return r
}

// starts reports whether sample i starts a run.
func starts(s *[resources.NumKinds]Series, i int) bool {
	if i == 0 {
		return true
	}
	for _, x := range s {
		if math.Float64bits(x[i]) != math.Float64bits(x[i-1]) {
			return true
		}
	}
	return false
}

// Len returns the number of samples.
func (r Runs) Len() int { return r.n }

// NumRuns returns the number of runs.
func (r Runs) NumRuns() int { return len(r.vals) }

// Offsets returns the run starts, nil when every sample is its own run.
func (r Runs) Offsets() []int32 { return r.offs }

// Val returns run j's utilization vector.
func (r Runs) Val(j int) resources.Vector { return r.vals[j] }

// start returns the first sample of run j, or Len() past the last run.
func (r Runs) start(j int) int {
	switch {
	case j >= len(r.vals):
		return r.n
	case r.offs == nil:
		return j
	}
	return int(r.offs[j])
}

// find returns the run holding sample i, 0 <= i < Len().
func (r Runs) find(i int) int {
	if r.offs == nil {
		return i
	}
	j, found := slices.BinarySearch(r.offs, int32(i))
	if !found {
		j--
	}
	return j
}

// At returns sample i's utilization vector, 0 <= i < Len().
func (r Runs) At(i int) resources.Vector { return r.vals[r.find(i)] }

// Prefix returns the first n samples (all of them when n >= Len()),
// sharing r's storage.
func (r Runs) Prefix(n int) Runs {
	if n >= r.n {
		return r
	}
	j := 0
	if n > 0 {
		j = r.find(n-1) + 1
	}
	p := Runs{vals: r.vals[:j], n: n}
	if r.offs != nil {
		p.offs = r.offs[:j]
	}
	return p
}

// Series expands kind k's samples into buf (reused from its start) and
// returns it.
func (r Runs) Series(k resources.Kind, buf Series) Series {
	buf = buf[:0]
	for j, v := range r.vals {
		for e := r.start(j + 1); len(buf) < e; {
			buf = append(buf, v[k])
		}
	}
	return buf
}

// Max returns kind k's maximum sample, the first of equals; 0 for an
// empty series.
func (r Runs) Max(k resources.Kind) float64 {
	if len(r.vals) == 0 {
		return 0
	}
	m := r.vals[0][k]
	for _, v := range r.vals[1:] {
		if v[k] > m {
			m = v[k]
		}
	}
	return m
}

// Mean returns kind k's mean sample. Each value is added once per sample
// in sample order, so the sum has a plain loop's bits.
func (r Runs) Mean(k resources.Kind) float64 {
	if r.n == 0 {
		return 0
	}
	var sum float64
	for j, i := 0, 0; j < len(r.vals); j++ {
		for e := r.start(j + 1); i < e; i++ {
			sum += r.vals[j][k]
		}
	}
	return sum / float64(r.n)
}

// WindowPercentile returns, per kind and window, the p-th percentile of
// the samples falling in that window across every day, with the bits of
// stats.Percentile over them. Coach uses this (e.g., P95) to size the
// guaranteed (PA) portion per formula (1) of §3.3. A series whose every
// sample is its own run selects over its samples; otherwise each window
// is a weighted select over the runs overlapping it, O(runs). Either way
// the runs are read once for all kinds.
func (r Runs) WindowPercentile(w Windows, p float64) [resources.NumKinds][]float64 {
	out := perKind(w)
	per := w.Samples()
	if r.offs == nil {
		var bufs [resources.NumKinds][]float64
		size := (r.n/SamplesPerDay + 1) * per
		slab := make([]float64, len(bufs)*size)
		for k := range bufs {
			bufs[k] = slab[k*size : (k+1)*size]
		}
		for t := 0; t < w.PerDay; t++ {
			m := 0
			for lo := t * per; lo < r.n; lo += SamplesPerDay {
				for _, v := range r.vals[lo:min(lo+per, r.n)] {
					for k, x := range v {
						bufs[k][m] = x
					}
					m++
				}
			}
			for k := range bufs {
				out[k][t] = stats.PercentileInPlace(bufs[k][:m], p)
			}
		}
		return out
	}
	// Cut the runs at window boundaries and append the pieces, in sample
	// order, to their (kind, window) list; neighbours with equal values
	// merge.
	sc, _ := runLists.Get().(*[][]stats.Run)
	if sc == nil {
		sc = new([][]stats.Run)
	}
	defer runLists.Put(sc)
	nl := int(resources.NumKinds) * w.PerDay
	if len(*sc) < nl {
		*sc = make([][]stats.Run, nl)
	}
	lists := (*sc)[:nl]
	for i := range lists {
		lists[i] = lists[i][:0]
	}
	for j, v := range r.vals {
		i, e := int(r.offs[j]), r.start(j+1)
		// Sample i lies in (day, window) cell c, window t of its day.
		for c, t := i/per, i%SamplesPerDay/per; i < e; c, t = c+1, (t+1)%w.PerDay {
			cut := min(e, (c+1)*per)
			for k, x := range v {
				l := lists[k*w.PerDay+t]
				if len(l) > 0 && math.Float64bits(l[len(l)-1].V) == math.Float64bits(x) {
					l[len(l)-1].N += cut - i
				} else {
					lists[k*w.PerDay+t] = append(l, stats.Run{V: x, N: cut - i})
				}
			}
			i = cut
		}
	}
	var buf []float64
	for i, l := range lists {
		out[i/w.PerDay][i%w.PerDay], buf = stats.PercentileRuns(l, p, buf)
	}
	return out
}

// runLists recycles WindowPercentile's (kind, window) run lists.
var runLists sync.Pool

// perKind returns a zeroed PerDay-long slice per kind, from one slab.
func perKind(w Windows) [resources.NumKinds][]float64 {
	var out [resources.NumKinds][]float64
	slab := make([]float64, len(out)*w.PerDay)
	for k := range out {
		out[k] = slab[k*w.PerDay : (k+1)*w.PerDay : (k+1)*w.PerDay]
	}
	return out
}

// LifetimeWindowMax returns, per kind and window, the maximum sample (the
// first of equals) across every complete day, or across the only,
// partial, day: the paper's "lifetime time window max" (Fig. 7). A
// window with no sample reads 0. Samples must hold no NaN, which
// trace.Validate guarantees.
func (r Runs) LifetimeWindowMax(w Windows) [resources.NumKinds][]float64 {
	out := perKind(w)
	seen := make([]bool, w.PerDay)
	limit := r.n - r.n%SamplesPerDay
	if limit == 0 {
		limit = r.n
	}
	per := w.Samples()
	// Walk the (day, window) cells [lo, hi); run j is the first run
	// overlapping the cell.
	for lo, j := 0, 0; lo < limit; lo += per {
		hi, t := min(lo+per, limit), lo%SamplesPerDay/per
		for ; ; j++ {
			for k, x := range r.vals[j] {
				if !seen[t] || x > out[k][t] {
					out[k][t] = x
				}
			}
			seen[t] = true
			if r.start(j+1) >= hi {
				break
			}
		}
		if r.start(j+1) == hi {
			j++
		}
	}
	return out
}

// Cursor walks a VM's runs forward in trace time. The replay keeps one
// per placed VM: a visit reads the run holding the current tick and
// learns when the next one starts, without searching or expanding.
type Cursor struct {
	offs     []int32
	vals     []resources.Vector
	j, start int32 // current run; trace sample of the VM's sample 0
}

// CursorAt returns a cursor on the run holding trace sample t, for runs
// whose sample 0 is trace sample start.
func (r Runs) CursorAt(start, t int) Cursor {
	return Cursor{r.offs, r.vals, int32(r.find(t - start)), int32(start)}
}

// next returns the trace sample where run j+1 starts.
func (c *Cursor) next() int {
	if c.offs == nil {
		return int(c.start + c.j + 1)
	}
	return int(c.start + c.offs[c.j+1])
}

// seek moves the cursor forward to the run holding trace sample t.
func (c *Cursor) seek(t int) {
	for int(c.j)+1 < len(c.vals) && c.next() <= t {
		c.j++
	}
}

// Seek moves the cursor forward to the run holding trace sample t, which
// must not precede the current run, and returns that run's vector.
func (c *Cursor) Seek(t int) resources.Vector {
	c.seek(t)
	return c.vals[c.j]
}

// SeekInto moves the cursor like Seek(t) and copies the vector of the
// run it lands on, then those of the runs after it, into dst while runs
// remain; it returns how many it copied. On runs where every sample is
// its own run (Runs.Offsets is nil) these are the vectors of samples
// t, t+1, …, so a reader can stage a block of them in one sequential
// copy. An empty dst only moves the cursor, without reading a run.
func (c *Cursor) SeekInto(t int, dst []resources.Vector) int {
	c.seek(t)
	return copy(dst, c.vals[c.j:])
}

// Next returns the trace sample where the run after the current one
// starts; ok is false on the last run.
func (c *Cursor) Next() (t int, ok bool) {
	if int(c.j)+1 >= len(c.vals) {
		return 0, false
	}
	return c.next(), true
}
