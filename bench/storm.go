package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"github.com/coach-oss/coach/internal/serve"
	"github.com/coach-oss/coach/internal/trace"
)

// client posts to a service's handler in-process: no sockets, no extra
// OS threads, one reusable response buffer per client goroutine.
type client struct {
	h    http.Handler
	resp recorder
	body bytes.Reader
	buf  []byte
}

// recorder is the minimum http.ResponseWriter the handlers need.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

var (
	urlAdmit   = &url.URL{Path: "/v1/admit"}
	urlRelease = &url.URL{Path: "/v1/release"}
	urlPredict = &url.URL{Path: "/v1/predict"}
	urlReport  = &url.URL{Path: "/v1/report"}
)

func newClient(h http.Handler) *client {
	return &client{h: h, resp: recorder{hdr: make(http.Header)}}
}

// post serves one POST through the handler and returns the status code;
// the response body stays in c.resp.body until the next call.
func (c *client) post(u *url.URL, body []byte) int {
	for k := range c.resp.hdr {
		delete(c.resp.hdr, k)
	}
	c.resp.code = http.StatusOK
	c.resp.body.Reset()
	c.body.Reset(body)
	c.h.ServeHTTP(&c.resp, &http.Request{
		Method: http.MethodPost, URL: u, Host: "bench",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Body: io.NopCloser(&c.body),
	})
	return c.resp.code
}

// describe renders the last exchange, for the failure report.
func (c *client) describe(path string) string {
	return fmt.Sprintf("POST %s %s answered %d %s", path, c.buf, c.resp.code, bytes.TrimSpace(c.resp.body.Bytes()))
}

func (c *client) vmBody(id int) []byte {
	c.buf = append(c.buf[:0], `{"vm":`...)
	c.buf = strconv.AppendInt(c.buf, int64(id), 10)
	c.buf = append(c.buf, '}')
	return c.buf
}

// admitOutcome classifies one /v1/admit answer.
type admitOutcome int

const (
	admitFailed   admitOutcome = iota // anything that is not an answer
	admitPlaced                       // 200, admitted
	admitRejected                     // 200 or 503 with a parseable rejection: an answer, not a failure
)

func (c *client) admit(id int) admitOutcome {
	code := c.post(urlAdmit, c.vmBody(id))
	if code != http.StatusOK && code != http.StatusServiceUnavailable {
		return admitFailed
	}
	var ar serve.AdmitResponse
	if err := json.Unmarshal(c.resp.body.Bytes(), &ar); err != nil || ar.VM != id {
		return admitFailed
	}
	switch {
	case code == http.StatusOK && ar.Admitted:
		return admitPlaced
	case !ar.Admitted && ar.Reason != "":
		return admitRejected
	}
	return admitFailed
}

func (c *client) release(id int) int { return c.post(urlRelease, c.vmBody(id)) }
func (c *client) predict(id int) int { return c.post(urlPredict, c.vmBody(id)) }

func (c *client) report(id int, util float64) int {
	c.buf = append(c.buf[:0], `{"vm":`...)
	c.buf = strconv.AppendInt(c.buf, int64(id), 10)
	c.buf = append(c.buf, `,"memory_util":`...)
	c.buf = strconv.AppendFloat(c.buf, util, 'f', 4, 64)
	c.buf = append(c.buf, '}')
	return c.post(urlReport, c.buf)
}

// stormResult is one closed-loop repetition.
type stormResult struct {
	wall       time.Duration
	requests   int       // completed before the drain
	admitMs    []float64 // one sample per /v1/admit, unsorted
	admits     int
	placed     int
	rejected   int
	attempted  int // every request, drain included
	failed     int
	failures   []string // what the first few failed requests looked like
	violations []string
	before     serve.Stats
	after      serve.Stats
}

// runStorm drives one repetition: every client owns a disjoint stride of
// vms, issues one /v1/predict and one /v1/admit per VM, keeps a ring of
// admitted VMs and releases the oldest once the ring is full. After its
// share of the request budget a client drains its ring. The wall clock
// stops when the last client finishes its budget; the drain is not
// timed. The service must be empty before and is checked empty after.
func runStorm(svc *serve.Service, vms []*trace.VM, clients, ring, requests int, t *tracer) stormResult {
	res := stormResult{before: svc.Stats()}
	if len(vms) < clients*(ring+2) {
		res.violations = append(res.violations, fmt.Sprintf("storm: %d evaluation VMs cannot give %d clients a ring of %d", len(vms), clients, ring))
		return res
	}
	type tally struct {
		admitMs                  []float64
		requests, attempted      int
		admits, placed, rejected int
		failed                   int
		firstFailure             string
	}
	tallies := make([]tally, clients)
	h := svc.Handler()
	per := requests / clients

	var budget, drained sync.WaitGroup
	budget.Add(clients)
	drained.Add(clients)
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		go func(ci int) {
			defer drained.Done()
			c, tl, tb := newClient(h), &tallies[ci], t.buf()
			tl.admitMs = make([]float64, 0, per/2)
			held := make([]int, 0, ring+1)
			// call wraps one request in its root span and handler span.
			call := func(name string, fn func() bool) time.Duration {
				root, t0 := tb.id(), time.Now()
				ok := fn()
				t1 := time.Now()
				tb.add(tb.id(), root, "serve.Handler"+name, root, t0, t1)
				tb.add(root, 0, "request"+name, root, t0, t1)
				tl.attempted++
				if !ok {
					if tl.failed++; tl.firstFailure == "" {
						tl.firstFailure = c.describe(name)
					}
				}
				return t1.Sub(t0)
			}
			// own is this client's stride. It is longer than the ring, but
			// on a tight fleet rejections let a client come round to a VM
			// it still holds; that one is skipped, not admitted twice.
			var own []int
			for i := ci; i < len(vms); i += clients {
				own = append(own, vms[i].ID)
			}
			holds := func(id int) bool {
				for _, h := range held {
					if h == id {
						return true
					}
				}
				return false
			}
			for next := 0; tl.attempted < per; next++ {
				id := own[next%len(own)]
				if holds(id) {
					continue
				}
				call("/v1/predict", func() bool { return c.predict(id) == http.StatusOK })
				var out admitOutcome
				d := call("/v1/admit", func() bool { out = c.admit(id); return out != admitFailed })
				tl.admitMs = append(tl.admitMs, float64(d.Nanoseconds())/1e6)
				tl.admits++
				switch out {
				case admitPlaced:
					tl.placed++
					held = append(held, id)
				case admitRejected:
					tl.rejected++
				}
				if len(held) > ring {
					oldest := held[0]
					held = append(held[:0], held[1:]...)
					call("/v1/release", func() bool { return c.release(oldest) == http.StatusOK })
				}
			}
			tl.requests = tl.attempted
			budget.Done()
			for _, id := range held {
				id := id
				call("/v1/release", func() bool { return c.release(id) == http.StatusOK })
			}
		}(ci)
	}
	budget.Wait()
	res.wall = time.Since(start)
	drained.Wait()

	for i := range tallies {
		tl := &tallies[i]
		res.admitMs = append(res.admitMs, tl.admitMs...)
		res.requests += tl.requests
		res.attempted += tl.attempted
		res.admits += tl.admits
		res.placed += tl.placed
		res.rejected += tl.rejected
		res.failed += tl.failed
		if tl.firstFailure != "" && len(res.failures) < 3 {
			res.failures = append(res.failures, "storm: "+tl.firstFailure)
		}
	}
	res.after = svc.Stats()
	res.violations = append(res.violations, checkDrained(res.after)...)
	if got := admittedTotal(res.after) - admittedTotal(res.before); got != int64(res.placed) {
		res.violations = append(res.violations, fmt.Sprintf("storm: clients saw %d admissions, the service counted %d", res.placed, got))
	}
	return res
}

func admittedTotal(st serve.Stats) (n int64) {
	for _, c := range st.Clusters {
		n += c.Admitted
	}
	return n
}

func releasedTotal(st serve.Stats) (n int64) {
	for _, c := range st.Clusters {
		n += c.Released
	}
	return n
}

// checkDrained is the storm's ledger: after the drain nothing is placed,
// nothing is attached, and every admission has its release.
func checkDrained(st serve.Stats) []string {
	var v []string
	if st.Placed != 0 {
		v = append(v, fmt.Sprintf("storm: %d VMs still placed after the drain", st.Placed))
	}
	if st.DataPlane.AttachedVMs != 0 {
		v = append(v, fmt.Sprintf("storm: %d VMs still attached after the drain", st.DataPlane.AttachedVMs))
	}
	if a, r := admittedTotal(st), releasedTotal(st); a != r {
		v = append(v, fmt.Sprintf("storm: admitted %d != released %d after the drain", a, r))
	}
	return v
}
