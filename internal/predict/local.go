package predict

import (
	"github.com/coach-oss/coach/internal/mllstm"
	"github.com/coach-oss/coach/internal/stats"
)

// LocalConfig configures the per-server two-level predictor.
type LocalConfig struct {
	// Alpha is the EWMA smoothing factor (paper §3.6: 0.5).
	Alpha float64
	// SeqLen is the number of 5-minute windows fed to the LSTM
	// (paper §3.6: five).
	SeqLen int
	// WarmupWindows is the number of completed 5-minute windows before
	// the LSTM's predictions are trusted (paper trains for 24 hours
	// before use; that is 288 windows).
	WarmupWindows int
	// LSTM configures the network.
	LSTM mllstm.Config
}

// DefaultLocalConfig matches §3.6: alpha=0.5, five-window LSTM input,
// 24-hour warmup.
func DefaultLocalConfig() LocalConfig {
	return LocalConfig{
		Alpha:         0.5,
		SeqLen:        5,
		WarmupWindows: 288,
		LSTM:          mllstm.DefaultConfig(),
	}
}

// Local is the per-VM (or per-server) contention predictor: an EWMA over
// 20-second observations for the short horizon and an online LSTM over
// 5-minute window statistics for the 5-minute horizon.
type Local struct {
	cfg  LocalConfig
	ewma *stats.EWMA
	lstm *mllstm.LSTM

	// Rolling history of completed 5-minute windows, oldest first:
	// [max, avg] rows preallocated for SeqLen windows, rotated in place.
	hist [][]float64

	// Accumulator for the current 5-minute window.
	curMax   float64
	curSum   float64
	curCount int

	completed int
}

// NewLocal builds the predictor. Invalid config fields fall back to
// defaults.
func NewLocal(cfg LocalConfig) (*Local, error) {
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.5
	}
	if cfg.SeqLen < 1 {
		cfg.SeqLen = 5
	}
	if cfg.LSTM.InputDim != 2 {
		cfg.LSTM.InputDim = 2
	}
	lstm, err := mllstm.New(cfg.LSTM)
	if err != nil {
		return nil, err
	}
	rows := make([]float64, 2*cfg.SeqLen)
	hist := make([][]float64, cfg.SeqLen)
	for i := range hist {
		hist[i] = rows[2*i : 2*i+2 : 2*i+2]
	}
	return &Local{cfg: cfg, ewma: stats.NewEWMA(cfg.Alpha), lstm: lstm, hist: hist[:0]}, nil
}

// Observe feeds one 20-second utilization observation (a fraction of the
// watched capacity). It updates the EWMA immediately and accumulates the
// current 5-minute window.
func (l *Local) Observe(util float64) {
	l.ewma.Observe(util)
	if util > l.curMax {
		l.curMax = util
	}
	l.curSum += util
	l.curCount++
}

// CompleteWindow closes the current 5-minute window: it trains the LSTM
// online (sequence of the previous SeqLen windows -> this window's max)
// and rolls the history. Call it every 15 observations (5 minutes of
// 20-second samples); calling with no observations is a no-op.
func (l *Local) CompleteWindow() {
	if l.curCount == 0 {
		return
	}
	if len(l.hist) == l.cfg.SeqLen {
		l.lstm.Train(l.hist, l.curMax)
		oldest := l.hist[0]
		copy(l.hist, l.hist[1:])
		l.hist[len(l.hist)-1] = oldest
	} else {
		l.hist = l.hist[:len(l.hist)+1]
	}
	row := l.hist[len(l.hist)-1]
	row[0], row[1] = l.curMax, l.curSum/float64(l.curCount)
	l.curMax, l.curSum, l.curCount = 0, 0, 0
	l.completed++
}

// PredictShort forecasts utilization for the next 20 seconds (EWMA).
func (l *Local) PredictShort() float64 { return clamp01(l.ewma.Predict()) }

// PredictFiveMin forecasts the maximum utilization over the next 5
// minutes. Before warmup completes it falls back to the EWMA forecast,
// mirroring the paper's 24-hour LSTM training gate.
func (l *Local) PredictFiveMin() float64 {
	if !l.LSTMReady() || len(l.hist) < l.cfg.SeqLen {
		return l.PredictShort()
	}
	return clamp01(l.lstm.Predict(l.hist))
}

// LSTMReady reports whether the LSTM has trained past its warmup.
func (l *Local) LSTMReady() bool { return l.completed >= l.cfg.WarmupWindows }

// MemoryBytes estimates the predictor's resident size (§4.5: ~25KB).
func (l *Local) MemoryBytes() int {
	return l.lstm.MemoryBytes() + len(l.hist)*2*8 + 64
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
