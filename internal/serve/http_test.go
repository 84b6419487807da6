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
	_, ts := newTestServer(t)

	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"malformed body", "/v1/predict", "{not json", http.StatusBadRequest},
		{"unknown vm", "/v1/predict", `{"vm": 99999999}`, http.StatusNotFound},
		{"release of unadmitted vm", "/v1/release", `{"vm": 0}`, http.StatusConflict},
		{"unknown field", "/v1/admit", `{"vm": 0, "x": 1}`, http.StatusBadRequest},
		{"two objects", "/v1/admit", `{"vm":1}{"vm":2}`, http.StatusBadRequest},
		{"trailing garbage", "/v1/report", `{"vm":1,"memory_util":0.5} x`, http.StatusBadRequest},
		{"oversized body", "/v1/admit", `{"vm": 0` + strings.Repeat(" ", 2*maxBodyBytes) + `}`, http.StatusRequestEntityTooLarge},
		{"oversized trailer", "/v1/release", `{"vm": 0}` + strings.Repeat(" ", 2*maxBodyBytes), http.StatusRequestEntityTooLarge},
	} {
		if code, body := post(t, ts.URL+tc.path, tc.body); code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.want, body)
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
	if admitted.Server < 0 || len(admitted.Guaranteed) == 0 {
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
