package timeseries

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/coach-oss/coach/internal/resources"
)

// CodeScale is how many utilization codes make a whole allocation: a
// code counts basis points (10⁻⁴), so a fraction in [0,1] is a code in
// 0..CodeScale and every preset's quantum is a whole count of codes.
const CodeScale = 10000

// Codes holds one utilization code per resource kind.
type Codes [resources.NumKinds]uint16

// ToCode rounds fraction x to the nearest code, halves up, clamped to
// [0, CodeScale]; NaN reads 0.
func ToCode(x float64) uint16 {
	switch {
	case x >= 1:
		return CodeScale
	case x > 0:
		return uint16(x*CodeScale + 0.5)
	}
	return 0
}

// Frac returns code c as a fraction: the float view of a code.
func Frac(c uint16) float64 { return float64(c) / CodeScale }

// Vector returns the float view of c.
func (c Codes) Vector() resources.Vector {
	var v resources.Vector
	for k, x := range c {
		v[k] = Frac(x)
	}
	return v
}

// Runs is a VM's utilization stored as vector runs of codes: run j holds
// one code per resource kind from its first sample up to the next run's,
// and a new run begins wherever any kind's code differs from the previous
// sample's. offs holds the ascending run starts (offs[0] == 0), except
// that it is nil when every sample is its own run: run j then starts at
// sample j, so a series that changes every sample costs 8 bytes a sample.
// The zero value is an empty series. Val, At, Seek and Series are the
// float view, Frac of each code; the other readers work on the codes and
// convert once per result.
type Runs struct {
	offs []int32
	vals []Codes
	n    int
}

// NewRuns rounds every sample of one equally long series per kind to its
// nearest code and run-encodes the codes; it keeps no reference to s. A
// series may hold at most math.MaxInt32 samples, so run starts fit in
// int32 and any count of samples in uint32.
func NewRuns(s [resources.NumKinds]Series) Runs {
	n := len(s[0])
	if n > math.MaxInt32 {
		panic("timeseries: NewRuns of more than math.MaxInt32 samples")
	}
	sc, _ := codeScratch.Get().(*[]Codes)
	if sc == nil {
		sc = new([]Codes)
	}
	defer codeScratch.Put(sc)
	codes, runs := slices.Grow((*sc)[:0], n)[:n], 0
	*sc = codes
	for i := range codes {
		for k := range s {
			codes[i][k] = ToCode(s[k][i])
		}
		if i == 0 || codes[i] != codes[i-1] {
			runs++
		}
	}
	if runs == n {
		return Runs{vals: slices.Clone(codes), n: n}
	}
	r := Runs{offs: make([]int32, 0, runs), vals: make([]Codes, 0, runs), n: n}
	for i, c := range codes {
		if i == 0 || c != codes[i-1] {
			r.offs = append(r.offs, int32(i))
			r.vals = append(r.vals, c)
		}
	}
	return r
}

// codeScratch recycles NewRuns' per-sample codes across calls and
// workers.
var codeScratch sync.Pool

// Len returns the number of samples.
func (r Runs) Len() int { return r.n }

// NumRuns returns the number of runs.
func (r Runs) NumRuns() int { return len(r.vals) }

// Offsets returns the run starts, nil when every sample is its own run.
func (r Runs) Offsets() []int32 { return r.offs }

// Val returns run j's utilization vector.
func (r Runs) Val(j int) resources.Vector { return r.vals[j].Vector() }

// Code returns run j's codes.
func (r Runs) Code(j int) Codes { return r.vals[j] }

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
func (r Runs) At(i int) resources.Vector { return r.vals[r.find(i)].Vector() }

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
		for x, e := Frac(v[k]), r.start(j+1); len(buf) < e; {
			buf = append(buf, x)
		}
	}
	return buf
}

// Max returns kind k's maximum sample; 0 for an empty series.
func (r Runs) Max(k resources.Kind) float64 {
	var m uint16
	for _, v := range r.vals {
		m = max(m, v[k])
	}
	return Frac(m)
}

// Mean returns kind k's mean sample: the exact sum of its codes, divided
// once, so it is the correctly rounded mean of the float view.
func (r Runs) Mean(k resources.Kind) float64 {
	if r.n == 0 {
		return 0
	}
	var sum int64
	for j, v := range r.vals {
		sum += int64(v[k]) * int64(r.start(j+1)-r.start(j))
	}
	return float64(sum) / (CodeScale * float64(r.n))
}

// WindowPercentile returns, per kind and window, the p-th percentile of
// the samples falling in that window across every day, with the bits of
// stats.Percentile over their float view. Coach uses this (e.g., P95) to
// size the guaranteed (PA) portion per formula (1) of §3.3. Each (kind,
// window) is a counting select over its codes (counts.percentile): a
// series whose every sample is its own run counts its samples, any other
// is cut at window boundaries into (code, length) runs counted with
// their lengths, O(runs).
func (r Runs) WindowPercentile(w Windows, p float64) [resources.NumKinds][]float64 {
	out := perKind(w)
	per := w.Samples()
	c, _ := countsPool.Get().(*counts)
	if c == nil {
		c = new(counts)
	}
	defer countsPool.Put(c)
	if r.offs == nil {
		for t := 0; t < w.PerDay; t++ {
			for k := range out {
				c.addWindow(r.vals, k, t, per)
				out[k][t] = c.percentile(p)
				c.clearWindow()
			}
		}
		return out
	}
	// Cut the runs at window boundaries and append the pieces, in sample
	// order, to their (kind, window) list; neighbours with equal codes
	// merge.
	sc, _ := runLists.Get().(*[][]codeRun)
	if sc == nil {
		sc = new([][]codeRun)
	}
	defer runLists.Put(sc)
	nl := int(resources.NumKinds) * w.PerDay
	if len(*sc) < nl {
		*sc = make([][]codeRun, nl)
	}
	lists := (*sc)[:nl]
	for i := range lists {
		lists[i] = lists[i][:0]
	}
	for j, v := range r.vals {
		i, e := int(r.offs[j]), r.start(j+1)
		// Sample i lies in (day, window) cell d, window t of its day.
		for d, t := i/per, i%SamplesPerDay/per; i < e; d, t = d+1, (t+1)%w.PerDay {
			cut := min(e, (d+1)*per)
			for k, x := range v {
				l := lists[k*w.PerDay+t]
				if len(l) > 0 && l[len(l)-1].c == x {
					l[len(l)-1].n += uint32(cut - i)
				} else {
					lists[k*w.PerDay+t] = append(l, codeRun{c: x, n: uint32(cut - i)})
				}
			}
			i = cut
		}
	}
	for i, l := range lists {
		for _, run := range l {
			c.add(run.c, run.n)
		}
		out[i/w.PerDay][i%w.PerDay] = c.percentile(p)
		c.clearRuns(l)
	}
	return out
}

// runLists recycles WindowPercentile's (kind, window) run lists.
var runLists sync.Pool

// codeRun is a code repeated n times: one run of a (kind, window) list.
type codeRun struct {
	c uint16
	n uint32
}

// bucketShift sets the coarse level of counts: code x is counted in
// bucket x >> bucketShift as well as in its own cell.
const bucketShift = 6

// occShift sets the granularity of counts.occ: 1<<occShift codes a bit,
// so CodeScale>>occShift < 64.
const occShift = 8

// counts is the counting select's scratch: how many of the counted
// samples hold each code, and each bucket of 1<<bucketShift codes. A
// window never holds more than Runs.Len() <= math.MaxInt32 samples, so a
// uint32 count cannot overflow. Between uses every count is zero.
type counts struct {
	total int
	// occ has bit i set once a code in [i<<occShift, (i+1)<<occShift) is
	// counted: the walks and the clearing read only the buckets from the
	// lowest such code's to the highest's.
	occ uint64
	// A bucket's count is the sum of its four lanes. addWindow counts
	// sample i in lane i mod 4: most neighbouring samples share a
	// bucket, and one lane would make each increment wait for the store
	// of the one before. add counts in lane 0.
	bucket [4][CodeScale>>bucketShift + 1]uint32
	code   [(CodeScale>>bucketShift + 1) << bucketShift]uint32
}

// countsPool recycles WindowPercentile's counts across calls and
// workers.
var countsPool sync.Pool

// add counts n samples of code x.
func (c *counts) add(x uint16, n uint32) {
	c.total += int(n)
	c.occ |= 1 << (x >> occShift & 63)
	c.bucket[0][x>>bucketShift] += n
	c.code[x] += n
}

// addWindow counts kind k of window t's samples in vs, a day of per-long
// windows after another, every sample its own run.
func (c *counts) addWindow(vs []Codes, k, t, per int) {
	lanes := &c.bucket
	occ := c.occ
	for day := t * per; day < len(vs); day += SamplesPerDay {
		w := vs[day:min(day+per, len(vs))]
		c.total += len(w)
		for ; len(w) >= 4; w = w[4:] {
			a, b, d, e := w[0][k], w[1][k], w[2][k], w[3][k]
			occ |= 1<<(a>>occShift&63) | 1<<(b>>occShift&63) | 1<<(d>>occShift&63) | 1<<(e>>occShift&63)
			lanes[0][a>>bucketShift]++
			lanes[1][b>>bucketShift]++
			lanes[2][d>>bucketShift]++
			lanes[3][e>>bucketShift]++
			c.code[a]++
			c.code[b]++
			c.code[d]++
			c.code[e]++
		}
		for _, v := range w {
			occ |= 1 << (v[k] >> occShift & 63)
			lanes[0][v[k]>>bucketShift]++
			c.code[v[k]]++
		}
	}
	c.occ = occ
}

// inBucket returns how many counted samples hold a code in bucket b.
func (c *counts) inBucket(b int) int {
	return int(c.bucket[0][b] + c.bucket[1][b] + c.bucket[2][b] + c.bucket[3][b])
}

// percentile returns the p-th percentile of the counted samples with the
// bits stats.PercentileInPlace returns over their float view. Codes and
// fractions share one order, so the two order statistics the
// interpolation needs are found on codes and only they are converted.
// p <= 0 and p >= 100 select the least and the greatest code; no samples
// read 0, and a NaN p reads NaN.
func (c *counts) percentile(p float64) float64 {
	n := c.total
	var rank float64
	switch {
	case n == 0:
		return 0
	case p != p:
		return math.NaN()
	case p >= 100:
		rank = float64(n - 1)
	case p > 0:
		rank = p / 100 * float64(n-1)
	}
	lo := int(rank)
	x, upTo := c.kth(lo)
	if float64(lo) == rank {
		return Frac(x)
	}
	frac := rank - float64(lo)
	next := x
	if upTo <= lo+1 {
		next = c.above(x)
	}
	return Frac(x)*(1-frac) + Frac(next)*frac
}

// kth returns the k-th smallest counted code, 0 <= k < total, and how
// many counted samples are at or below it. It walks the buckets, then the
// codes of one bucket, from whichever end of the counts is nearer k.
func (c *counts) kth(k int) (x uint16, upTo int) {
	lo, hi := c.span()
	if k < c.total/2 {
		b := lo
		for ; upTo+c.inBucket(b) <= k; b++ {
			upTo += c.inBucket(b)
		}
		i := b << bucketShift
		for ; upTo+int(c.code[i]) <= k; i++ {
			upTo += int(c.code[i])
		}
		return uint16(i), upTo + int(c.code[i])
	}
	// Walk down to the (total-1-k)-th greatest; above counts the samples
	// greater than the bucket or code reached.
	r, above, b := c.total-1-k, 0, hi
	for ; above+c.inBucket(b) <= r; b-- {
		above += c.inBucket(b)
	}
	i := (b+1)<<bucketShift - 1
	for ; above+int(c.code[i]) <= r; i-- {
		above += int(c.code[i])
	}
	return uint16(i), c.total - above
}

// above returns the smallest counted code greater than x, which must
// exist.
func (c *counts) above(x uint16) uint16 {
	i, b := int(x)+1, int(x)>>bucketShift
	if i>>bucketShift == b {
		for ; i < (b+1)<<bucketShift; i++ {
			if c.code[i] != 0 {
				return uint16(i)
			}
		}
	}
	for b++; c.inBucket(b) == 0; b++ {
	}
	for i = b << bucketShift; c.code[i] == 0; i++ {
	}
	return uint16(i)
}

// clearWindow zeroes the counts addWindow made: every code cell of the
// buckets occ marks.
func (c *counts) clearWindow() {
	if lo, hi := c.span(); lo <= hi {
		clear(c.code[lo<<bucketShift : (hi+1)<<bucketShift])
	}
	c.zero()
}

// clearRuns zeroes the counts adding every run of l made.
func (c *counts) clearRuns(l []codeRun) {
	for _, run := range l {
		c.code[run.c] = 0
	}
	c.zero()
}

// zero clears every count but the per-code ones.
func (c *counts) zero() {
	if lo, hi := c.span(); lo <= hi {
		for l := range c.bucket {
			clear(c.bucket[l][lo : hi+1])
		}
	}
	c.total, c.occ = 0, 0
}

// span returns the first and last bucket occ marks; hi < lo when occ is
// empty.
func (c *counts) span() (lo, hi int) {
	lo = bits.TrailingZeros64(c.occ) << (occShift - bucketShift)
	hi = (64-bits.LeadingZeros64(c.occ))<<(occShift-bucketShift) - 1
	return lo, min(hi, len(c.code)>>bucketShift-1)
}

// perKind returns a zeroed PerDay-long slice per kind, from one slab.
func perKind(w Windows) [resources.NumKinds][]float64 {
	var out [resources.NumKinds][]float64
	slab := make([]float64, len(out)*w.PerDay)
	for k := range out {
		out[k] = slab[k*w.PerDay : (k+1)*w.PerDay : (k+1)*w.PerDay]
	}
	return out
}

// LifetimeWindowMax returns, per kind and window, the maximum sample
// across every complete day, or across the only, partial, day: the
// paper's "lifetime time window max" (Fig. 7). A window with no sample
// reads 0.
func (r Runs) LifetimeWindowMax(w Windows) [resources.NumKinds][]float64 {
	out := perKind(w)
	mx := make([]Codes, w.PerDay)
	limit := r.n - r.n%SamplesPerDay
	if limit == 0 {
		limit = r.n
	}
	per := w.Samples()
	// Walk the (day, window) cells [lo, hi); run j is the first run
	// overlapping the cell.
	for lo, j := 0, 0; lo < limit; lo += per {
		hi, t := min(lo+per, limit), lo%SamplesPerDay/per
		m := mx[t]
		for ; ; j++ {
			v := r.vals[j]
			m = Codes{max(m[0], v[0]), max(m[1], v[1]), max(m[2], v[2]), max(m[3], v[3])}
			if r.start(j+1) >= hi {
				break
			}
		}
		mx[t] = m
		if r.start(j+1) == hi {
			j++
		}
	}
	for t, m := range mx {
		for k, c := range m {
			out[k][t] = Frac(c)
		}
	}
	return out
}

// Cursor walks a VM's runs forward in trace time. The replay keeps one
// per placed VM: a visit reads the run holding the current tick and
// learns when the next one starts, without searching or expanding.
type Cursor struct {
	offs     []int32
	vals     []Codes
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
func (c *Cursor) Seek(t int) resources.Vector { return c.SeekCodes(t).Vector() }

// SeekCodes is Seek returning the run's codes.
func (c *Cursor) SeekCodes(t int) Codes {
	c.seek(t)
	return c.vals[c.j]
}

// SeekInto moves the cursor like Seek(t) and copies the codes of the run
// it lands on, then those of the runs after it, into dst while runs
// remain; it returns how many it copied. On runs where every sample is
// its own run (Runs.Offsets is nil) these are the codes of samples t,
// t+1, …, so a reader can stage a block of them in one sequential copy.
// An empty dst only moves the cursor, without reading a run.
func (c *Cursor) SeekInto(t int, dst []Codes) int {
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
