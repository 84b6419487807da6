package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestSplitVariant(t *testing.T) {
	for _, tc := range []struct {
		name, key, variant string
		ok                 bool
	}{
		{"PredictMatrix/trees=40/depth=12/batch=64/layout=walk", "PredictMatrix/trees=40/depth=12/batch=64", "walk", true},
		{"PredictMatrix/trees=40/layout=sweep/depth=12/batch=64", "PredictMatrix/trees=40/depth=12/batch=64", "sweep", true},
		{"PredictMatrix/trees=40/depth=12/batch=64", "", "", false},
		{"PredictMatrix/trees=40/depth=12/batch=64/layout=", "", "", false},
	} {
		key, variant, ok := splitVariant(tc.name)
		if key != tc.key || variant != tc.variant || ok != tc.ok {
			t.Errorf("splitVariant(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.name, key, variant, ok, tc.key, tc.variant, tc.ok)
		}
	}
}

// A benchmark repeated under -count keeps its fastest repetition; other
// benchmarks and unknown schedules are ignored.
func TestParseBench(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: github.com/coach-oss/coach
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkPredictMatrix/trees=40/depth=12/batch=64/layout=walk-2  3000  410000 ns/op  6406 ns/row
BenchmarkPredictMatrix/trees=40/depth=12/batch=64/layout=matrix-2  5000  230000 ns/op  3594 ns/row
BenchmarkPredictMatrix/trees=40/depth=12/batch=64/layout=matrix-2  5000  250000 ns/op  3906 ns/row
BenchmarkPredictMatrix/trees=40/depth=12/batch=64/layout=sweep-2  9000  120000 ns/op  2000 ns/row
BenchmarkPredictMatrix/trees=40/depth=12/batch=64/layout=experimental-2  9000  1 ns/op  1 ns/row
BenchmarkPredictMatrix/trees=8/depth=6/batch=1/layout=walk  9000  136 ns/op  136 ns/row
BenchmarkServeThroughput/clients=8-2        	  100000	     11000 ns/op	    5008 B/op	      18 allocs/op
PASS
ok  	github.com/coach-oss/coach	12.3s
`
	want := map[string]gridPoint{
		"PredictMatrix/trees=40/depth=12/batch=64": {
			Walk:   &sample{NsPerOp: 410000, NsPerRow: 6406},
			Matrix: &sample{NsPerOp: 230000, NsPerRow: 3594},
			Sweep:  &sample{NsPerOp: 120000, NsPerRow: 2000},
		},
		"PredictMatrix/trees=8/depth=6/batch=1": {Walk: &sample{NsPerOp: 136, NsPerRow: 136}},
	}
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
}

func TestCheckPoint(t *testing.T) {
	row := func(v float64) *sample { return &sample{NsPerOp: 1, NsPerRow: v} }
	for _, tc := range []struct {
		name       string
		want, have gridPoint
		tol        float64
		fails      []string // one substring per expected failure, in order
	}{
		{name: "same ratio on a faster host", tol: 0.5,
			want: gridPoint{Walk: row(300), Matrix: row(60)},
			have: gridPoint{Walk: row(100), Matrix: row(20)}},
		{name: "ratio drift inside the tolerance", tol: 0.5,
			want: gridPoint{Walk: row(100), Matrix: row(100)},
			have: gridPoint{Walk: row(100), Matrix: row(149)}},
		{name: "ratio drift past the tolerance", tol: 0.5,
			want:  gridPoint{Walk: row(100), Matrix: row(20)},
			have:  gridPoint{Walk: row(100), Matrix: row(40)},
			fails: []string{"matrix:walk ns/row ratio 0.40 vs baseline 0.20"}},
		{name: "ns/op does not enter the ratio", tol: 0.5,
			want: gridPoint{Walk: &sample{NsPerOp: 1, NsPerRow: 100}, Matrix: &sample{NsPerOp: 1, NsPerRow: 20}},
			have: gridPoint{Walk: &sample{NsPerOp: 1, NsPerRow: 100}, Matrix: &sample{NsPerOp: 9, NsPerRow: 20}}},
		{name: "an improved ratio never fails", tol: 0.25,
			want: gridPoint{Walk: row(100), Matrix: row(100)},
			have: gridPoint{Walk: row(100), Matrix: row(10)}},
		{name: "the sweep is gated against the walk too", tol: 0.5,
			want:  gridPoint{Walk: row(100), Matrix: row(20), Sweep: row(10)},
			have:  gridPoint{Walk: row(100), Matrix: row(25), Sweep: row(16)},
			fails: []string{"sweep:walk ns/row ratio 0.16 vs baseline 0.10"}},
		{name: "schedule missing from the output", tol: 0.5,
			want:  gridPoint{Walk: row(100), Matrix: row(20)},
			have:  gridPoint{Walk: row(100)},
			fails: []string{"layout=matrix missing"}},
		{name: "a grid point recorded without a sweep does not need one", tol: 0.5,
			want: gridPoint{Walk: row(100), Matrix: row(20)},
			have: gridPoint{Walk: row(100), Matrix: row(20)}},
	} {
		got := checkPoint("key", tc.want, tc.have, tc.tol)
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
