// Package mllstm implements a compact single-layer LSTM regressor with
// full backpropagation through time, from scratch on the standard library.
//
// Coach's local prediction component uses "a long short-term memory network
// (LSTM) for the next 5 minutes ... The LSTM uses the maximum and average
// utilization in the five previous 5-minute windows as input and is also
// updated online" (paper §3.4, §3.6). The model here matches that scale:
// ~25KB of state and sub-millisecond training/inference cycles.
package mllstm

import (
	"fmt"
	"math"
	"math/rand"
)

// Config sizes the network.
type Config struct {
	// InputDim is the number of features per timestep (paper: 2 —
	// window max and window average).
	InputDim int
	// HiddenDim is the LSTM state width.
	HiddenDim int
	// LearningRate is the SGD step size for online updates.
	LearningRate float64
	// Clip bounds each gradient element (<=0 disables clipping).
	Clip float64
	// Seed initializes the weights deterministically.
	Seed int64
}

// DefaultConfig returns a small network suitable for per-VM online
// utilization prediction.
func DefaultConfig() Config {
	return Config{InputDim: 2, HiddenDim: 8, LearningRate: 0.05, Clip: 1.0, Seed: 7}
}

// Gate order within every per-gate array: input, forget, output, cell.
const (
	gateI = iota
	gateF
	gateO
	gateG
)

// weights is a set of views into one slab, laid out row-major at fixed
// offsets: the four gates' input matrices [hidden][input], their
// recurrent matrices [hidden][hidden], their biases, the head's weights
// and, last, the head's bias. Parameters and gradients share the layout,
// so an SGD step is one loop over two slabs.
type weights struct {
	slab []float64
	x, u [4][]float64 // per gate: input and recurrent matrices
	b    [4][]float64 // per gate: biases
	wy   []float64
}

func newWeights(h, in int) weights {
	w := weights{slab: make([]float64, 4*(h*in+h*h+h)+h+1)}
	rest := w.slab
	take := func(n int) []float64 {
		v := rest[:n:n]
		rest = rest[n:]
		return v
	}
	for q := range w.x {
		w.x[q] = take(h * in)
	}
	for q := range w.u {
		w.u[q] = take(h * h)
	}
	for q := range w.b {
		w.b[q] = take(h)
	}
	w.wy = take(h)
	return w
}

// by is the head's bias, the slab's last element.
func (w *weights) by() *float64 { return &w.slab[len(w.slab)-1] }

// trace is the forward pass's record for BPTT, step-major: step t's
// vectors are elements [t*HiddenDim, (t+1)*HiddenDim) of each slab.
type trace struct {
	gate        [4][]float64 // activations, in gate order
	c, h, tanhC []float64
}

// LSTM is a single-layer LSTM with a scalar linear head. It is trained
// online: each Train call does one forward+BPTT pass over one sequence.
// Train and Predict allocate only when a sequence is longer than any
// seen before.
type LSTM struct {
	cfg Config

	p, g weights // parameters and their gradient

	tr trace
	// BPTT state, and a zero vector standing in for the hidden and cell
	// state before the first step.
	dh, dc, dhPrev, dcPrev, zero []float64
}

// New creates an initialized network. Forget-gate biases start at 1, the
// standard trick to preserve memory early in training.
func New(cfg Config) (*LSTM, error) {
	if cfg.InputDim < 1 || cfg.HiddenDim < 1 {
		return nil, fmt.Errorf("mllstm: invalid dims input=%d hidden=%d", cfg.InputDim, cfg.HiddenDim)
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.05
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h, in := cfg.HiddenDim, cfg.InputDim
	scale := 1 / math.Sqrt(float64(in+h))
	l := &LSTM{cfg: cfg, p: newWeights(h, in), g: newWeights(h, in)}
	// The input and recurrent matrices lead the slab, in draw order.
	for k := range l.p.slab[:4*(h*in+h*h)] {
		l.p.slab[k] = rng.NormFloat64() * scale
	}
	for i := 0; i < h; i++ {
		l.p.b[gateF][i] = 1
		l.p.wy[i] = rng.NormFloat64() * scale
	}
	state := make([]float64, 5*h)
	l.dh, l.dc, l.dhPrev, l.dcPrev, l.zero = state[:h], state[h:2*h], state[2*h:3*h], state[3*h:4*h], state[4*h:]
	return l, nil
}

// grow sizes the trace for a T-step sequence.
func (l *LSTM) grow(T int) {
	n := T * l.cfg.HiddenDim
	if n <= len(l.tr.c) {
		return
	}
	buf := make([]float64, 7*n)
	for q := range l.tr.gate {
		l.tr.gate[q], buf = buf[:n], buf[n:]
	}
	l.tr.c, l.tr.h, l.tr.tanhC = buf[:n], buf[n:2*n], buf[2*n:]
}

// forward runs the network over seq, recording the activation trace, and
// returns the prediction.
func (l *LSTM) forward(seq [][]float64) float64 {
	h, in := l.cfg.HiddenDim, l.cfg.InputDim
	l.grow(len(seq))
	p, tr := &l.p, &l.tr
	prevH, prevC := l.zero, l.zero
	for t, x := range seq {
		s := t * h
		for j := 0; j < h; j++ {
			r, ru := j*in, j*h
			var a [4]float64
			for q := range a {
				a[q] = p.b[q][j] + dot(p.x[q][r:r+in], x) + dot(p.u[q][ru:ru+h], prevH)
			}
			i, f, o, g := sigmoid(a[gateI]), sigmoid(a[gateF]), sigmoid(a[gateO]), math.Tanh(a[gateG])
			c := f*prevC[j] + i*g
			tc := math.Tanh(c)
			tr.gate[gateI][s+j], tr.gate[gateF][s+j], tr.gate[gateO][s+j], tr.gate[gateG][s+j] = i, f, o, g
			tr.c[s+j], tr.tanhC[s+j], tr.h[s+j] = c, tc, o*tc
		}
		prevH, prevC = tr.h[s:s+h], tr.c[s:s+h]
	}
	return *p.by() + dot(p.wy, prevH)
}

// Predict returns the regression output for a sequence of feature vectors.
// Sequences shorter than 1 step return 0.
func (l *LSTM) Predict(seq [][]float64) float64 {
	if len(seq) == 0 {
		return 0
	}
	return l.forward(seq)
}

// Train performs one online SGD step on (seq, target) with squared-error
// loss and returns the pre-update prediction error (prediction - target).
func (l *LSTM) Train(seq [][]float64, target float64) float64 {
	if len(seq) == 0 {
		return 0
	}
	dy := l.forward(seq) - target

	h := l.cfg.HiddenDim
	in := l.cfg.InputDim
	T := len(seq)
	p, g, tr := &l.p, &l.g, &l.tr

	clear(g.slab)
	dh, dc, dhPrev, dcPrev := l.dh, l.dc, l.dhPrev, l.dcPrev
	last := (T - 1) * h
	for j := 0; j < h; j++ {
		g.wy[j] = dy * tr.h[last+j]
		dh[j] = dy * p.wy[j]
		dc[j] = 0
	}
	*g.by() = dy

	for t := T - 1; t >= 0; t-- {
		prevH, prevC := l.zero, l.zero
		if t > 0 {
			prevH, prevC = tr.h[last-h:last], tr.c[last-h:last]
		}
		clear(dhPrev)
		x := seq[t]
		for j := 0; j < h; j++ {
			sj := last + j
			i, f, o, gg, tc := tr.gate[gateI][sj], tr.gate[gateF][sj], tr.gate[gateO][sj], tr.gate[gateG][sj], tr.tanhC[sj]
			do := dh[j] * tc
			dcj := dc[j] + dh[j]*o*(1-tc*tc)
			di := dcj * gg
			dg := dcj * i
			df := dcj * prevC[j]
			dcPrev[j] = dcj * f

			var da [4]float64
			da[gateI] = di * i * (1 - i)
			da[gateF] = df * f * (1 - f)
			da[gateO] = do * o * (1 - o)
			da[gateG] = dg * (1 - gg*gg)

			// Each gradient element takes one addition per (step, unit), so
			// visiting the gates one at a time keeps every sum's order.
			r, ru := j*in, j*h
			for q, d := range da {
				gx, gu := g.x[q][r:r+in], g.u[q][ru:ru+h]
				for k, xk := range x[:in] {
					gx[k] += d * xk
				}
				for k, ph := range prevH {
					gu[k] += d * ph
				}
				g.b[q][j] += d
			}
			ui, uf, uo, ug := p.u[gateI][ru:ru+h], p.u[gateF][ru:ru+h], p.u[gateO][ru:ru+h], p.u[gateG][ru:ru+h]
			for k := range dhPrev {
				dhPrev[k] += da[gateI]*ui[k] + da[gateF]*uf[k] + da[gateO]*uo[k] + da[gateG]*ug[k]
			}
		}
		dh, dhPrev = dhPrev, dh
		dc, dcPrev = dcPrev, dc
		last -= h
	}

	lr := l.cfg.LearningRate
	clip := l.cfg.Clip
	for k, gk := range g.slab {
		p.slab[k] -= lr * clipVal(gk, clip)
	}
	return dy
}

// MemoryBytes is the size of the model's parameters (§4.5: ~25KB per
// local predictor); the gradient slab and training scratch beside them
// are not counted.
func (l *LSTM) MemoryBytes() int { return len(l.p.slab) * 8 }

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func clipVal(g, clip float64) float64 {
	if clip <= 0 {
		return g
	}
	if g > clip {
		return clip
	}
	if g < -clip {
		return -clip
	}
	return g
}
