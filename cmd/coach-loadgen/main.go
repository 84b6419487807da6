// Command coach-loadgen drives a running coachd with concurrent clients
// and reports throughput and latency percentiles. Each client loops over
// a deterministic per-client stream of VM ids, issuing predictions plus a
// configurable fraction of admissions, each released again. The ids are
// drawn from the trace a default coachd at the same -scale serves: the
// capacity preset, which loadgen regenerates (the scenario engine is
// deterministic from its seed) to learn its VM count.
//
// Usage:
//
//	coach-loadgen [-addr http://localhost:8080] [-clients 16]
//	              [-requests 2000] [-admit-frac 0.25]
//	              [-seed 1]
//	              [-scenario NAME|spec.txt] [-scale small|medium|full]
//	              [-speedup 3600] [-from-day -1] [-replay-days 1]
//	              [-timeout 10s] [-retries 3] [-retry-backoff 100ms]
//	              [-pprof-addr ""]
//
// Every request carries a -timeout deadline, and transient failures —
// transport errors, timeouts and 5xx responses that are not definitive
// rejections — are retried up to -retries times with jittered
// exponential backoff, honoring the server's Retry-After header. A 503
// admit rejection with a parseable body (capacity or pool pressure) is
// the server's definitive answer and counts as rejected, not failed.
// When any request still fails after retries, loadgen prints a breakdown
// by error class (timeout, transport, http-5xx) and exits non-zero.
//
// With -scenario, loadgen switches to scenario replay: it regenerates
// the same trace a coachd started with the same -scenario and -scale is
// serving (the scenario engine is deterministic from its seed), then
// replays the arrival/departure schedule of the chosen trace window in
// real time compressed by -speedup (3600 = one trace hour per second).
// Each arriving VM is admitted at its arrival instant and released at
// its departure; -from-day -1 starts at the trace midpoint, where
// coachd's predictor training ends. -clients bounds in-flight requests.
//
// Each admitting client follows the documented recipe: it predicts one
// VM, admits it (the admit takes the prediction /v1/predict just made,
// docs/api.md) and releases it before moving on.
//
// Latency percentiles are reported both overall and per endpoint, so a
// run shows directly what admission costs relative to predictions and
// releases.
//
// Example output:
//
//	clients=16 requests=2000 errors=0  wall=1.32s  1515.2 req/s
//	latency: p50=9.1ms p95=22.4ms p99=31.0ms max=48.2ms
//	admit:   n=378 p50=11.3ms p95=25.9ms p99=34.1ms max=48.2ms
//	predict: n=1244 p50=8.6ms p95=20.8ms p99=29.5ms max=41.7ms
//	release: n=378 p50=7.9ms p95=18.2ms p99=26.0ms max=37.3ms
//	server:  predictions=1244 rows/admitted=47.4 cache hits/misses=0/1
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/coach-oss/coach/internal/experiments"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/serve"
	"github.com/coach-oss/coach/internal/stats"
	"github.com/coach-oss/coach/internal/trace"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "coachd base URL")
	clients := flag.Int("clients", 16, "concurrent clients")
	requests := flag.Int("requests", 2000, "total requests across all clients")
	admitFrac := flag.Float64("admit-frac", 0.25, "fraction of requests that are admit (each later released)")
	seed := flag.Int64("seed", 1, "base RNG seed (client i uses seed+i)")
	scenarioFlag := flag.String("scenario", "", "replay a workload scenario (preset name or spec file) instead of the random request mix; must match the served coachd's -scenario")
	scale := flag.String("scale", "small", "trace scale of the served coachd")
	speedup := flag.Float64("speedup", 3600, "trace-time compression for scenario replay (3600 = 1 trace hour per second)")
	fromDay := flag.Int("from-day", -1, "first trace day to replay (-1 = the trace midpoint, where training ends)")
	replayDays := flag.Int("replay-days", 1, "number of trace days to replay")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline")
	retries := flag.Int("retries", 3, "retry attempts for transient failures (transport errors, timeouts, non-definitive 5xx)")
	retryBackoff := flag.Duration("retry-backoff", 100*time.Millisecond, "base retry backoff (doubled per attempt, jittered, capped by Retry-After when the server sends one)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6061; empty = off)")
	flag.Parse()

	if *pprofAddr != "" {
		// loadgen makes no HTTP server of its own, so the default mux is
		// free for the pprof registrations — profile the client side of a
		// load run (scenario replay scheduling, encode/decode) directly.
		go func() {
			fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof server:", err)
			}
		}()
	}

	scen := *scenarioFlag
	if scen == "" {
		scen = "capacity" // what a coachd without -scenario serves
	}
	tr, spec, err := servedTrace(scen, *scale)
	if err == nil {
		hc := newHTTPClient(*timeout, *retries, *retryBackoff, *seed)
		if *scenarioFlag != "" {
			err = replay(hc, *addr, tr, spec, *fromDay, *replayDays, *speedup, *clients)
		} else {
			err = run(hc, *addr, *clients, *requests, *admitFrac, len(tr.VMs), *seed)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coach-loadgen:", err)
		os.Exit(1)
	}
}

// httpClient wraps the shared HTTP client with the retry policy: every
// request carries the configured deadline, and transient failures back
// off exponentially with jitter, honoring Retry-After.
type httpClient struct {
	c       *http.Client
	retries int
	backoff time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

func newHTTPClient(timeout time.Duration, retries int, backoff time.Duration, seed int64) *httpClient {
	return &httpClient{
		c:       &http.Client{Timeout: timeout},
		retries: retries,
		backoff: backoff,
		rng:     rand.New(rand.NewSource(seed ^ 0x10ad9e4)),
	}
}

// jitter scales d by a uniform factor in [0.5, 1.5) so synchronized
// clients do not retry in lockstep.
func (hc *httpClient) jitter(d time.Duration) time.Duration {
	hc.mu.Lock()
	f := 0.5 + hc.rng.Float64()
	hc.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// post issues one POST with the retry policy and returns the final
// status code and response body. definitive reports whether a non-2xx
// response is the server's final answer (no point retrying): admit
// rejections carry a parseable AdmitResponse body even at 503.
func (hc *httpClient) post(url, body string) (code int, respBody []byte, err error) {
	for attempt := 0; ; attempt++ {
		var resp *http.Response
		resp, err = hc.c.Post(url, "application/json", bytes.NewReader([]byte(body)))
		var retryAfter time.Duration
		if err == nil {
			respBody, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			code = resp.StatusCode
			if code < 500 {
				return code, respBody, nil
			}
			if code == http.StatusServiceUnavailable && definitiveAdmitReject(respBody) {
				// The server decided: the fleet cannot take this VM now.
				// Retry-After is advice for a client that wants in later;
				// a load generator's schedule moves on.
				return code, respBody, nil
			}
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 0 {
					retryAfter = time.Duration(secs) * time.Second
				}
			}
		}
		if attempt >= hc.retries {
			return code, respBody, err
		}
		d := hc.jitter(hc.backoff << attempt)
		if retryAfter > 0 && retryAfter < d {
			d = retryAfter
		}
		time.Sleep(d)
	}
}

// definitiveAdmitReject reports whether a 503 body is a parseable admit
// rejection — the server's final word rather than a transient outage.
func definitiveAdmitReject(body []byte) bool {
	var ar serve.AdmitResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		return false
	}
	return !ar.Admitted && ar.Reason != ""
}

// errClasses breaks ultimate failures (after retries) down by cause.
type errClasses struct {
	timeout   int
	transport int
	http5xx   int
}

func (e *errClasses) total() int { return e.timeout + e.transport + e.http5xx }

func (e *errClasses) String() string {
	return fmt.Sprintf("timeout=%d transport=%d http-5xx=%d", e.timeout, e.transport, e.http5xx)
}

// add merges o into e.
func (e *errClasses) add(o errClasses) {
	e.timeout += o.timeout
	e.transport += o.transport
	e.http5xx += o.http5xx
}

// classify records a request's final outcome, returning true when it is
// a failure.
func (e *errClasses) classify(err error, code int) bool {
	switch {
	case err != nil:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			e.timeout++
		} else {
			e.transport++
		}
		return true
	case code >= 500:
		e.http5xx++
		return true
	}
	return false
}

// servedTrace regenerates the trace a coachd started with -scenario scen
// and -scale scaleName serves.
func servedTrace(scen, scaleName string) (*trace.Trace, *scenario.Spec, error) {
	sc, err := experiments.ParseScale(scaleName)
	if err != nil {
		return nil, nil, err
	}
	sp, err := scenario.Load(scen)
	if err != nil {
		return nil, nil, err
	}
	spec := sc.ScenarioSpec(sp)
	tr, err := trace.GenerateScenario(spec)
	return tr, spec, err
}

// replay replays one window of the scenario trace's arrival/departure
// schedule against the server.
func replay(hc *httpClient, addr string, tr *trace.Trace, spec *scenario.Spec, fromDay, replayDays int, speedup float64, clients int) error {
	if clients < 1 {
		return fmt.Errorf("clients must be positive")
	}
	if fromDay < 0 {
		fromDay = spec.Days / 2
	}
	evs, err := buildSchedule(tr, fromDay, replayDays, speedup)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return fmt.Errorf("no arrivals in days %d..%d of scenario %q", fromDay, fromDay+replayDays, spec.Name)
	}
	if err := check(addr + "/healthz"); err != nil {
		return fmt.Errorf("coachd not reachable at %s: %w", addr, err)
	}
	fmt.Printf("replaying scenario %q day %d..%d: %d events over %s (speedup %gx)\n",
		spec.Name, fromDay, fromDay+replayDays, len(evs),
		evs[len(evs)-1].At.Round(time.Millisecond), speedup)

	sem := make(chan struct{}, clients)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var admitLat, releaseLat []float64
	var placed, rejected, releases int
	var ec errClasses
	start := time.Now()
	for _, ev := range evs {
		if d := ev.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(ev event) {
			defer wg.Done()
			defer func() { <-sem }()
			body := fmt.Sprintf(`{"vm": %d}`, ev.VM)
			t0 := time.Now()
			if ev.Admit {
				code, respBody, err := hc.post(addr+"/v1/admit", body)
				d := time.Since(t0).Seconds()
				var resp serve.AdmitResponse
				parsed := err == nil && json.Unmarshal(respBody, &resp) == nil
				mu.Lock()
				defer mu.Unlock()
				admitLat = append(admitLat, d)
				switch {
				case parsed && code == http.StatusOK && resp.Admitted:
					placed++
				case parsed && !resp.Admitted && resp.Reason != "":
					// A definitive rejection — capacity, pool pressure —
					// whether served as 200 or 503: expected behaviour
					// under load, not a failure.
					rejected++
				default:
					ec.classify(err, code)
				}
				return
			}
			// Releasing a VM the server rejected on admit answers 409;
			// that is schedule skew, not failure.
			code, _, err := hc.post(addr+"/v1/release", body)
			d := time.Since(t0).Seconds()
			mu.Lock()
			defer mu.Unlock()
			releaseLat = append(releaseLat, d)
			releases++
			ec.classify(err, code)
		}(ev)
	}
	wg.Wait()
	wall := time.Since(start)

	var lat []float64
	lat = append(append(lat, admitLat...), releaseLat...)
	sort.Float64s(lat)
	fmt.Printf("events=%d placed=%d rejected=%d released=%d errors=%d  wall=%s  %.1f req/s\n",
		len(lat), placed, rejected, releases, ec.total(),
		wall.Round(time.Millisecond), float64(len(lat))/wall.Seconds())
	if n := len(lat); n > 0 {
		fmt.Printf("latency: p50=%s p95=%s p99=%s max=%s\n",
			dur(stats.PercentileSorted(lat, 50)), dur(stats.PercentileSorted(lat, 95)),
			dur(stats.PercentileSorted(lat, 99)), dur(lat[n-1]))
	}
	latLine("admit", admitLat)
	latLine("release", releaseLat)
	var st serve.Stats
	if err := getJSON(addr+"/v1/stats", &st); err == nil {
		var srvReleased, srvRejected int64
		for _, cs := range st.Clusters {
			srvReleased += cs.Released
			srvRejected += cs.Rejected
		}
		fmt.Printf("server:  placed=%d released=%d rejected=%d predictions=%d\n",
			st.Placed, srvReleased, srvRejected, st.Batch.Requests)
		if st.DataPlane.Crashes > 0 || st.DataPlane.LostVMs > 0 {
			fmt.Printf("faults:  crashes=%d recoveries=%d evicted=%d replaced=%d lost=%d\n",
				st.DataPlane.Crashes, st.DataPlane.Recoveries, st.DataPlane.EvictedVMs,
				st.DataPlane.ReplacedVMs, st.DataPlane.LostVMs)
		}
	}
	if ec.total() > 0 {
		return fmt.Errorf("%d requests failed after retries (%s)", ec.total(), &ec)
	}
	return nil
}

// result collects one client's measurements, with latencies kept per
// endpoint so the report can show what each request class costs.
type result struct {
	admitLat   []float64 // seconds
	predictLat []float64
	releaseLat []float64
	errs       errClasses
}

// latLine prints one endpoint's latency percentiles; endpoints the mix
// never exercised print nothing. Sorts lat in place.
func latLine(name string, lat []float64) {
	n := len(lat)
	if n == 0 {
		return
	}
	sort.Float64s(lat)
	fmt.Printf("%-8s n=%d p50=%s p95=%s p99=%s max=%s\n", name+":", n,
		dur(stats.PercentileSorted(lat, 50)), dur(stats.PercentileSorted(lat, 95)),
		dur(stats.PercentileSorted(lat, 99)), dur(lat[n-1]))
}

func run(hc *httpClient, addr string, clients, requests int, admitFrac float64, vms int, seed int64) error {
	if clients < 1 || requests < 1 {
		return fmt.Errorf("clients and requests must be positive")
	}
	if err := check(addr + "/healthz"); err != nil {
		return fmt.Errorf("coachd not reachable at %s: %w", addr, err)
	}

	perClient := requests / clients
	if perClient == 0 {
		perClient = 1
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = client(hc, addr, perClient, admitFrac, vms, seed+int64(c))
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	var admitL, predictL, releaseL []float64
	var ec errClasses
	for _, r := range results {
		admitL = append(admitL, r.admitLat...)
		predictL = append(predictL, r.predictLat...)
		releaseL = append(releaseL, r.releaseLat...)
		ec.add(r.errs)
	}
	var all []float64
	all = append(append(append(all, admitL...), predictL...), releaseL...)
	sort.Float64s(all)
	total := len(all)
	fmt.Printf("clients=%d requests=%d errors=%d  wall=%s  %.1f req/s\n",
		clients, total, ec.total(), wall.Round(time.Millisecond), float64(total)/wall.Seconds())
	if total > 0 {
		fmt.Printf("latency: p50=%s p95=%s p99=%s max=%s\n",
			dur(stats.PercentileSorted(all, 50)), dur(stats.PercentileSorted(all, 95)),
			dur(stats.PercentileSorted(all, 99)), dur(all[total-1]))
	}
	latLine("admit", admitL)
	latLine("predict", predictL)
	latLine("release", releaseL)

	var st serve.Stats
	if err := getJSON(addr+"/v1/stats", &st); err == nil {
		var admitted int64
		for _, cs := range st.Clusters {
			admitted += cs.Admitted
		}
		fmt.Printf("server:  predictions=%d rows/admitted=%.1f cache hits/misses=%d/%d\n",
			st.Batch.Requests, float64(st.Inference.Rows)/float64(max(admitted, 1)), st.Cache.Hits, st.Cache.Misses)
	}
	if ec.total() > 0 {
		return fmt.Errorf("%d requests failed after retries (%s)", ec.total(), &ec)
	}
	return nil
}

// client issues n requests against the service, timing each round trip.
func client(hc *httpClient, addr string, n int, admitFrac float64, vms int, seed int64) result {
	rng := rand.New(rand.NewSource(seed))
	var res result
	for i := 0; i < n; i++ {
		id := rng.Intn(vms)
		body := fmt.Sprintf(`{"vm": %d}`, id)
		if rng.Float64() < admitFrac {
			// Predict, admit, then immediately release, so the fleet does not
			// fill up over a long run and every admit exercises placement.
			t0 := time.Now()
			code, _, err := hc.post(addr+"/v1/predict", body)
			res.predictLat = append(res.predictLat, time.Since(t0).Seconds())
			if res.errs.classify(err, code) {
				continue
			}
			t0 = time.Now()
			code, respBody, err := hc.post(addr+"/v1/admit", body)
			res.admitLat = append(res.admitLat, time.Since(t0).Seconds())
			// 409 (already admitted by a colliding client) is contention
			// and a definitive 503 rejection is expected under load; only
			// transport errors, timeouts and other 5xx count.
			if code == http.StatusServiceUnavailable && definitiveAdmitReject(respBody) {
				continue
			}
			if res.errs.classify(err, code) {
				continue
			}
			if code == http.StatusOK {
				t0 = time.Now()
				_, _, err := hc.post(addr+"/v1/release", body)
				res.releaseLat = append(res.releaseLat, time.Since(t0).Seconds())
				if err != nil {
					res.errs.classify(err, 0)
				}
			}
			continue
		}
		t0 := time.Now()
		code, _, err := hc.post(addr+"/v1/predict", body)
		res.predictLat = append(res.predictLat, time.Since(t0).Seconds())
		if !res.errs.classify(err, code) && code != http.StatusOK {
			// Unexpected non-200 on predict (404/405/...): misconfigured
			// run — surface it as a transport-class failure.
			res.errs.transport++
		}
	}
	return res
}

func check(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func dur(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second)).Round(10 * time.Microsecond)
}
