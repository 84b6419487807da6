package stats

// EWMA is an exponentially weighted moving average, the short-horizon
// predictor in Coach's two-level local contention prediction (paper §3.4,
// §3.6: updated every 20-second window with alpha = 0.5).
//
// The zero value is not ready; construct with NewEWMA. After the first
// observation the prediction equals that observation.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1].
// Larger alpha weights recent observations more heavily.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one observation into the average.
func (e *EWMA) Observe(x float64) {
	if !e.primed {
		e.value = x
		e.primed = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Predict returns the current smoothed value, the forecast for the next
// interval. Before any observation it returns 0.
func (e *EWMA) Predict() float64 { return e.value }
