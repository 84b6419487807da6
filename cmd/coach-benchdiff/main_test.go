package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSplitVariant(t *testing.T) {
	for _, tc := range []struct {
		name, seg, key, variant string
		ok                      bool
	}{
		{"SimCore/sparse-churn/vms=1000/engine=event/days=7/workers=1", "engine=", "SimCore/sparse-churn/vms=1000/days=7/workers=1", "event", true},
		{"PredictMatrix/trees=40/depth=12/batch=64/layout=walk", "layout=", "PredictMatrix/trees=40/depth=12/batch=64", "walk", true},
		{"PredictMatrix/trees=40/depth=12/batch=64", "layout=", "", "", false},
		{"PredictMatrix/trees=40/depth=12/batch=64/layout=", "layout=", "", "", false},
	} {
		key, variant, ok := splitVariant(tc.name, tc.seg)
		if key != tc.key || variant != tc.variant || ok != tc.ok {
			t.Errorf("splitVariant(%q, %q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.name, tc.seg, key, variant, ok, tc.key, tc.variant, tc.ok)
		}
	}
}

// A benchmark repeated under -count keeps its fastest repetition.
func TestParseBench(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: github.com/coach-oss/coach
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkSimCore/sparse-churn/vms=1000/engine=dense/days=7/workers=1-2  3  410000000 ns/op  2016000 visits/op
BenchmarkSimCore/sparse-churn/vms=1000/engine=event/days=7/workers=1-2  3  90000000 ns/op  300000 visits/op
BenchmarkSimCore/sparse-churn/vms=1000/engine=event/days=7/workers=1-2  3  99000000 ns/op  300000 visits/op
BenchmarkSimCore/sparse-churn/vms=1000/engine=event/days=7/workers=2    3  60000000 ns/op  300000 visits/op
BenchmarkSimCore/sparse-churn/vms=1000/engine=experimental/days=7/workers=2-2  3  1 ns/op
BenchmarkServeThroughput/clients=8-2        	  100000	     11000 ns/op	    5008 B/op	      18 allocs/op
BenchmarkPredictMatrix/trees=40/depth=12/batch=64/layout=matrix-2  5000  230000 ns/op  3594 ns/row
BenchmarkPredictMatrix/trees=40/depth=12/batch=64/layout=sweep-2  9000  120000 ns/op  2000 ns/row
PASS
ok  	github.com/coach-oss/coach	12.3s
`
	for _, tc := range []struct {
		grid string
		want map[string]gridPoint
	}{
		{"simcore", map[string]gridPoint{
			"SimCore/sparse-churn/vms=1000/days=7/workers=1": {
				Dense: &engineSample{NsPerOp: 410000000, VisitsPerOp: 2016000},
				Event: &engineSample{NsPerOp: 90000000, VisitsPerOp: 300000},
			},
			"SimCore/sparse-churn/vms=1000/days=7/workers=2": {Event: &engineSample{NsPerOp: 60000000, VisitsPerOp: 300000}},
		}},
		{"predict", map[string]gridPoint{
			"PredictMatrix/trees=40/depth=12/batch=64": {Matrix: &engineSample{NsPerOp: 230000, NsPerRow: 3594}, Sweep: &engineSample{NsPerOp: 120000, NsPerRow: 2000}},
		}},
	} {
		got, err := parseBench(strings.NewReader(out), grids[tc.grid])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("grid %s: parsed %+v, want %+v", tc.grid, got, tc.want)
		}
	}
}

func TestCheckPoint(t *testing.T) {
	ns := func(v float64) *engineSample { return &engineSample{NsPerOp: v} }
	visits := func(nsOp, v float64) *engineSample { return &engineSample{NsPerOp: nsOp, VisitsPerOp: v} }
	for _, tc := range []struct {
		name       string
		grid       string
		want, have gridPoint
		tol        float64
		fails      []string // one substring per expected failure, in order
	}{
		{name: "same ratio on a faster host", grid: "simcore", tol: 0.5,
			want: gridPoint{Dense: ns(30000), Event: ns(30000)},
			have: gridPoint{Dense: ns(10000), Event: ns(10000)}},
		{name: "ratio drift inside the tolerance", grid: "simcore", tol: 0.5,
			want: gridPoint{Dense: ns(100), Event: ns(100)},
			have: gridPoint{Dense: ns(100), Event: ns(149)}},
		{name: "ratio drift past the tolerance", grid: "simcore", tol: 0.5,
			want:  gridPoint{Dense: ns(100), Event: ns(100)},
			have:  gridPoint{Dense: ns(100), Event: ns(151)},
			fails: []string{"event:dense ns/op ratio 1.51 vs baseline 1.00"}},
		{name: "an improved ratio never fails", grid: "simcore", tol: 0.25,
			want: gridPoint{Dense: ns(100), Event: ns(100)},
			have: gridPoint{Dense: ns(100), Event: ns(10)}},
		{name: "variant missing from the output", grid: "simcore", tol: 0.5,
			want:  gridPoint{Dense: ns(100), Event: ns(100)},
			have:  gridPoint{Dense: ns(100)},
			fails: []string{"engine=event missing"}},
		{name: "variant absent from the baseline is not required", grid: "simcore", tol: 0.5,
			want: gridPoint{Dense: ns(100)},
			have: gridPoint{Dense: ns(900)}},
		{name: "visits drift is a behavioural change", grid: "simcore", tol: 0.25,
			want:  gridPoint{Dense: visits(100, 1000), Event: visits(80, 100)},
			have:  gridPoint{Dense: visits(100, 1000), Event: visits(80, 130)},
			fails: []string{"engine=event: visits/op 130 vs baseline 100"}},
		{name: "visits appearing against a zero baseline", grid: "simcore", tol: 0.25,
			want:  gridPoint{Dense: visits(100, 0), Event: visits(80, 0)},
			have:  gridPoint{Dense: visits(100, 5), Event: visits(80, 0)},
			fails: []string{"engine=dense: visits/op 5 vs baseline 0"}},
		{name: "predict gates ns/row, not ns/op", grid: "predict", tol: 0.5,
			want:  gridPoint{Walk: &engineSample{NsPerOp: 1, NsPerRow: 100}, Matrix: &engineSample{NsPerOp: 1, NsPerRow: 20}},
			have:  gridPoint{Walk: &engineSample{NsPerOp: 1, NsPerRow: 100}, Matrix: &engineSample{NsPerOp: 9, NsPerRow: 40}},
			fails: []string{"matrix:walk ns/row ratio 0.40 vs baseline 0.20"}},
		{name: "predict gates the sweep against the walk too", grid: "predict", tol: 0.5,
			want:  gridPoint{Walk: &engineSample{NsPerRow: 100}, Matrix: &engineSample{NsPerRow: 20}, Sweep: &engineSample{NsPerRow: 10}},
			have:  gridPoint{Walk: &engineSample{NsPerRow: 100}, Matrix: &engineSample{NsPerRow: 25}, Sweep: &engineSample{NsPerRow: 16}},
			fails: []string{"sweep:walk ns/row ratio 0.16 vs baseline 0.10"}},
		{name: "a grid point recorded without a sweep does not need one", grid: "predict", tol: 0.5,
			want: gridPoint{Walk: &engineSample{NsPerRow: 100}, Matrix: &engineSample{NsPerRow: 20}},
			have: gridPoint{Walk: &engineSample{NsPerRow: 100}, Matrix: &engineSample{NsPerRow: 20}}},
	} {
		got := checkPoint("key", tc.want, tc.have, tc.tol, grids[tc.grid])
		if len(got) != len(tc.fails) {
			t.Errorf("%s: failures %q, want %d", tc.name, got, len(tc.fails))
			continue
		}
		for i, sub := range tc.fails {
			if !strings.Contains(got[i], sub) {
				t.Errorf("%s: failure %q does not mention %q", tc.name, got[i], sub)
			}
		}
	}
}

func TestRelDrift(t *testing.T) {
	for _, tc := range []struct{ have, want, drift float64 }{
		{100, 100, 0},
		{125, 100, 0.25},
		{75, 100, 0.25},
		{0, 0, 0},
		{1, 0, math.Inf(1)},
	} {
		if got := relDrift(tc.have, tc.want); got != tc.drift {
			t.Errorf("relDrift(%v, %v) = %v, want %v", tc.have, tc.want, got, tc.drift)
		}
	}
}
