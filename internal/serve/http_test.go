package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, DefaultConfig())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestHTTPHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Policy != "Coach" || len(st.Clusters) == 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestHTTPErrorCodes(t *testing.T) {
	s, ts := newTestServer(t)

	type row struct {
		name, path, body string
		want             int
	}
	// The per-VM tables are slices indexed by id: an id just outside
	// [0, len(tr.VMs)) must be a 404 on every endpoint, never a panic.
	var outside []row
	for _, path := range []string{"/v1/predict", "/v1/admit", "/v1/release", "/v1/report"} {
		for _, id := range []int{-1, len(s.tr.VMs)} {
			outside = append(outside, row{fmt.Sprintf("vm %d", id), path, fmt.Sprintf(`{"vm": %d}`, id), http.StatusNotFound})
		}
	}
	for _, tc := range append(outside, []row{
		{"malformed body", "/v1/predict", "{not json", http.StatusBadRequest},
		{"unknown vm", "/v1/predict", `{"vm": 99999999}`, http.StatusNotFound},
		{"release of unadmitted vm", "/v1/release", `{"vm": 0}`, http.StatusConflict},
		{"unknown field", "/v1/admit", `{"vm": 0, "x": 1}`, http.StatusBadRequest},
		{"two objects", "/v1/admit", `{"vm":1}{"vm":2}`, http.StatusBadRequest},
		{"trailing garbage", "/v1/report", `{"vm":1,"memory_util":0.5} x`, http.StatusBadRequest},
		{"oversized body", "/v1/admit", `{"vm": 0` + strings.Repeat(" ", 2*maxBodyBytes) + `}`, http.StatusRequestEntityTooLarge},
		{"oversized trailer", "/v1/release", `{"vm": 0}` + strings.Repeat(" ", 2*maxBodyBytes), http.StatusRequestEntityTooLarge},
	}...) {
		if code, body := post(t, ts.URL+tc.path, tc.body); code != tc.want {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.path, tc.name, code, tc.want, body)
		}
	}
	// GET on the POST endpoints.
	for _, path := range []string{"/v1/predict", "/v1/admit", "/v1/release", "/v1/report"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}

func TestHTTPAdmitLifecycle(t *testing.T) {
	s, ts := newTestServer(t)
	tr := getTrace(t)

	var admitted *AdmitResponse
	for _, vm := range evalVMs(tr) {
		code, body := post(t, ts.URL+"/v1/admit", fmt.Sprintf(`{"vm": %d}`, vm.ID))
		// Retryable rejections (full/pressured fleet) are 503; everything
		// else on this path should admit with a 200.
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Fatalf("admit status %d: %s", code, body)
		}
		var ar AdmitResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		if ar.Admitted {
			admitted = &ar
			break
		}
	}
	if admitted == nil {
		t.Fatal("no VM admitted over HTTP")
	}
	if admitted.Server < 0 || admitted.Guaranteed == nil {
		t.Fatalf("admitted response incomplete: %+v", admitted)
	}

	if code, body := post(t, ts.URL+"/v1/admit", fmt.Sprintf(`{"vm": %d}`, admitted.VM)); code != http.StatusConflict {
		t.Fatalf("duplicate admit status %d: %s", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/release", fmt.Sprintf(`{"vm": %d}`, admitted.VM)); code != http.StatusOK {
		t.Fatalf("release status %d: %s", code, body)
	}
	if got := s.Stats().Placed; got != 0 {
		t.Fatalf("placed after release: %d, want 0", got)
	}
}

// TestHTTPStatsInference reads the forests' work off /v1/stats: the
// predict-then-admit recipe on one fresh VM is one prediction, 8 forest
// passes of 6 window rows, because the admit takes the prediction
// /v1/predict left for it; evaluated on fewer lanes than (row, tree,
// window) walks because the windows share theirs. An admit with no
// prediction waiting runs the forests itself, once per admit.
func TestHTTPStatsInference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cache = NewModelCache() // own model: the counters start at zero
	s := newTestService(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	inference := func() map[string]int64 {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Inference map[string]int64 `json:"inference"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Inference
	}
	if got := inference(); len(got) != 4 || got["rows"] != 0 {
		t.Fatalf("inference before any model or request: %v, want four zero counters", got)
	}
	// Unpredictable VMs cost the forests nothing, so the requests before
	// the first fresh VM leave the counters at zero.
	vms := evalVMs(getTrace(t))
	first := -1
	for i, vm := range vms {
		if _, body := post(t, ts.URL+"/v1/predict", fmt.Sprintf(`{"vm": %d}`, vm.ID)); !strings.Contains(string(body), `"ok":true`) {
			continue
		}
		post(t, ts.URL+"/v1/admit", fmt.Sprintf(`{"vm": %d}`, vm.ID))
		first = i
		break
	}
	if first < 0 {
		t.Fatal("fixture regression: no fresh evaluation VM")
	}
	got := inference()
	trees := int64(DefaultConfig().LongTerm.Forest.Trees)
	if got["passes"] != 8 || got["rows"] != 48 || got["mismatched_rows"] != 0 {
		t.Errorf("inference after predict+admit of one fresh VM: %v, want 8 passes / 48 rows / 0 mismatched", got)
	}
	if got["lanes"] < 8*trees || got["lanes"] >= 48*trees {
		t.Errorf("inference lanes %d: want between %d (all windows share) and %d (none do)", got["lanes"], 8*trees, 48*trees)
	}

	// Admit alone: the next fresh VM, never predicted, costs one pass set.
	for _, vm := range vms[first+1:] {
		_, body := post(t, ts.URL+"/v1/admit", fmt.Sprintf(`{"vm": %d}`, vm.ID))
		if strings.Contains(string(body), `"oversubscribed":true`) {
			break
		}
	}
	if got := inference(); got["rows"] != 96 {
		t.Errorf("inference after admitting a second fresh VM unpredicted: %d rows, want 96", got["rows"])
	}

	// The prediction was taken once: releasing the first VM and admitting
	// it again with no new /v1/predict runs the forests again.
	id := vms[first].ID
	if code, body := post(t, ts.URL+"/v1/release", fmt.Sprintf(`{"vm": %d}`, id)); code != http.StatusOK {
		t.Fatalf("release vm %d: status %d %s", id, code, body)
	}
	post(t, ts.URL+"/v1/admit", fmt.Sprintf(`{"vm": %d}`, id))
	if got := inference(); got["rows"] != 144 {
		t.Errorf("inference after release and re-admit without a predict: %d rows, want 144", got["rows"])
	}
}

// TestHTTPGoldenBodies pins the wire bytes of /v1/predict and /v1/admit:
// an unpredictable VM, a predicted one, a fully guaranteed and an
// oversubscribed admission, and a retryable capacity rejection on a
// one-server fleet. The bodies were first captured when the per-kind
// objects were still maps, and recaptured on the capacity-preset trace.
func TestHTTPGoldenBodies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cache = testCache
	s, err := New(getTrace(t), cluster.NewFleet(cluster.DefaultClusters(1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	do := func(path string, id int) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(fmt.Sprintf(`{"vm":%d}`, id))))
		return rec.Code, rec.Body.String()
	}
	for _, g := range []struct {
		path string
		vm   int
		code int
		body string
	}{
		{"/v1/predict", 5, 200, `{"vm":5,"ok":false}`},
		{"/v1/predict", 4, 200, `{"vm":4,"ok":true,"percentile":95,"windows":6,"resources":{"cpu":{"pct":[0.6000000000000001,0.6500000000000001,0.6000000000000001,0.25,0.2,0.3],"max":[0.6000000000000001,0.7000000000000001,0.7500000000000001,0.25,0.25,0.3]},"memory":{"pct":[0.5,0.55,0.5,0.45,0.4,0.4],"max":[0.6500000000000001,0.55,0.55,0.55,0.4,0.6000000000000001]},"network":{"pct":[0.4,0.45,0.4,0.2,0.15000000000000002,0.2],"max":[0.4,0.45,0.5,0.2,0.2,0.25]},"ssd":{"pct":[0.4,0.4,0.4,0.35000000000000003,0.35000000000000003,0.35000000000000003],"max":[0.45,0.4,0.4,0.4,0.35000000000000003,0.4]}}}`},
		{"/v1/admit", 5, 200, `{"vm":5,"admitted":true,"cluster":4,"server":0,"oversubscribed":false,"alloc":{"cpu":1,"memory":8,"network":0.25,"ssd":32},"guaranteed":{"cpu":1,"memory":8,"network":0.25,"ssd":32}}`},
		{"/v1/admit", 4, 200, `{"vm":4,"admitted":true,"cluster":5,"server":0,"oversubscribed":true,"alloc":{"cpu":4,"memory":16,"network":1,"ssd":128},"guaranteed":{"cpu":3,"memory":9,"network":0.5,"ssd":52}}`},
	} {
		if code, body := do(g.path, g.vm); code != g.code || body != g.body+"\n" {
			t.Errorf("%s vm %d: status %d body %s, want %d %s", g.path, g.vm, code, body, g.code, g.body)
		}
	}
	// The rejection needs the fleet full: admit the evaluation period in
	// order, as the capture did, until vm 157 arrives.
	for _, vm := range evalVMs(getTrace(t)) {
		code, body := do("/v1/admit", vm.ID)
		if vm.ID != 157 {
			continue
		}
		want := `{"vm":157,"admitted":false,"reason":"no server in the home cluster has capacity","cluster":6,"server":-1,"oversubscribed":true,"retryable":true}`
		if code != http.StatusServiceUnavailable || body != want+"\n" {
			t.Errorf("/v1/admit vm 157: status %d body %s, want 503 %s", code, body, want)
		}
		return
	}
	t.Fatal("fixture regression: vm 157 is not in the evaluation period")
}

// TestHTTPPredictByteIdentical posts the same body concurrently many
// times and requires every response to be byte-identical — the wire-level
// face of batching determinism.
func TestHTTPPredictByteIdentical(t *testing.T) {
	_, ts := newTestServer(t)
	tr := getTrace(t)
	vms := evalVMs(tr)

	for _, vm := range vms[:3] {
		body := fmt.Sprintf(`{"vm": %d}`, vm.ID)
		code, want := post(t, ts.URL+"/v1/predict", body)
		if code != http.StatusOK {
			t.Fatalf("predict status %d: %s", code, want)
		}
		const n = 24
		got := make([][]byte, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					errs[i] = err
					return
				}
				defer resp.Body.Close()
				got[i], errs[i] = io.ReadAll(resp.Body)
			}(i)
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !bytes.Equal(got[i], want) {
				t.Fatalf("vm %d response %d differs:\n got: %s\nwant: %s", vm.ID, i, got[i], want)
			}
		}
	}
}

func TestHTTPShutdown(t *testing.T) {
	s, ts := newTestServer(t)
	tr := getTrace(t)
	s.Close()
	code, _ := post(t, ts.URL+"/v1/predict", fmt.Sprintf(`{"vm": %d}`, tr.VMs[0].ID))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("predict after shutdown: status %d, want 503", code)
	}
}
