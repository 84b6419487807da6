package serve

import "errors"

// ErrClosed is returned for requests submitted after shutdown began.
var ErrClosed = errors.New("serve: service is shutting down")

// ErrAlreadyAdmitted is wrapped by Admit when the VM is already placed.
var ErrAlreadyAdmitted = errors.New("already admitted")

// BatchStats is the /v1/stats shape of a request counter. Every
// prediction and every admission is its own pass, so requests = batches
// and every size is 1; the fields stay for wire compatibility.
type BatchStats struct {
	Requests int64   `json:"requests"`
	Batches  int64   `json:"batches"`
	MaxBatch int     `json:"max_batch"`
	MeanSize float64 `json:"mean_size"`
	// P50Size is the median batch size: the smallest size s such that at
	// least half of all batches had size ≤ s.
	P50Size int `json:"p50_size"`
}

// onePerPass reports n requests, each its own pass (zero when n is 0).
func onePerPass(n int64) BatchStats {
	if n == 0 {
		return BatchStats{}
	}
	return BatchStats{Requests: n, Batches: n, MaxBatch: 1, MeanSize: 1, P50Size: 1}
}
