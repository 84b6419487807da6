package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

const handwrittenSpec = `# A handwritten scenario exercising every construct.
name: handwritten
seed: 99
days: 14
vms: 800
subscriptions: 40
clusters: 6
start-weekday: wednesday

seasonality:
  diurnal-amp: 0.45
  peak-hour: 13.5
  weekend-factor: 0.7

classes:
  - name: web
    fraction: 0.6
    archetype: business-hours
    size: mixed
    arrival: gamma cv=2.5
    lifetime: lognormal mean=36h sigma=1.1
    working-set: uniform min=0.3 max=0.65
  - name: batch
    fraction: 0.4
    size: large
    clusters: 0,1,2
    arrival: weibull shape=0.7
    lifetime: exponential mean=8
    working-set: fixed value=0.5

surges:
  - kind: black-friday
    day: 11.5
    duration-hours: 24
    rate-mult: 2.5
    util-mult: 1.3
  - kind: regional-failover
    classes: web
    day: 9
    duration-hours: 6
    rate-mult: 1.5
    cluster: 3
`

func TestParseHandwritten(t *testing.T) {
	sp, err := Parse(handwrittenSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Name != "handwritten" || sp.Seed != 99 || sp.Days != 14 || sp.VMs != 800 {
		t.Errorf("top-level fields wrong: %+v", sp)
	}
	if sp.StartWeekday != time.Wednesday {
		t.Errorf("start weekday = %v", sp.StartWeekday)
	}
	if sp.Seasonality != (Seasonality{DiurnalAmp: 0.45, PeakHour: 13.5, WeekendFactor: 0.7}) {
		t.Errorf("seasonality = %+v", sp.Seasonality)
	}
	if len(sp.Classes) != 2 {
		t.Fatalf("%d classes", len(sp.Classes))
	}
	web := sp.Classes[0]
	if web.Name != "web" || web.Fraction != 0.6 || web.Archetype != "business-hours" || web.Size != "" {
		t.Errorf("web class = %+v", web)
	}
	if web.Arrival != (Arrival{Process: Gamma, CV: 2.5}) {
		t.Errorf("web arrival = %+v", web.Arrival)
	}
	// The "h" on the lifetime mean is a cosmetic unit.
	if web.Lifetime != (Dist{Kind: DistLognormal, Mean: 36, Sigma: 1.1}) {
		t.Errorf("web lifetime = %+v", web.Lifetime)
	}
	batch := sp.Classes[1]
	if batch.Size != "large" || !reflect.DeepEqual(batch.Clusters, []int{0, 1, 2}) {
		t.Errorf("batch class = %+v", batch)
	}
	if batch.WorkingSet != Fixed(0.5) {
		t.Errorf("batch working set = %+v", batch.WorkingSet)
	}
	if len(sp.Surges) != 2 {
		t.Fatalf("%d surges", len(sp.Surges))
	}
	if sp.Surges[0].Cluster != -1 {
		t.Errorf("surge without cluster must default to -1, got %d", sp.Surges[0].Cluster)
	}
	if sp.Surges[1].Cluster != 3 || !reflect.DeepEqual(sp.Surges[1].Classes, []string{"web"}) {
		t.Errorf("failover surge = %+v", sp.Surges[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{"tab-indent", "classes:\n\t- name: x", "tab"},
		{"bad-indent", "classes:\n   - name: x", "indentation"},
		{"missing-colon", "days 14", "missing ':'"},
		{"unknown-top-key", "dayz: 14", "unknown key"},
		{"unknown-class-key", "classes:\n  - name: a\n    color: red", "unknown class key"},
		{"unknown-surge-key", "surges:\n  - kind: a\n    blast: 3", "unknown surge key"},
		{"unknown-seasonality-key", "seasonality:\n  lunar-amp: 1", "unknown seasonality key"},
		{"section-with-value", "classes: all", "takes no value"},
		{"bad-int", "days: soon", "not an integer"},
		{"bad-seed", "seed: 1.5", "not an integer"},
		{"bad-float", "seasonality:\n  peak-hour: noon", "not a number"},
		{"nan-rejected", "seasonality:\n  peak-hour: NaN", "not finite"},
		{"inf-rejected", "seasonality:\n  peak-hour: +Inf", "not finite"},
		{"bad-weekday", "start-weekday: Holiday", "unknown weekday"},
		{"bad-process", "classes:\n  - name: a\n    arrival: pareto", "unknown arrival process"},
		{"bad-dist-kind", "classes:\n  - name: a\n    lifetime: zipf mean=3", "unknown distribution"},
		{"bad-dist-param", "classes:\n  - name: a\n    lifetime: exponential rate=3", "unknown parameter"},
		{"bad-arrival-param", "classes:\n  - name: a\n    arrival: poisson cv=2", "unknown parameter"},
		{"bad-param-syntax", "classes:\n  - name: a\n    lifetime: exponential mean", "not key=value"},
		{"bad-clusters", "classes:\n  - name: a\n    clusters: 0,x", "not an integer list"},
		{"orphan-item", "- name: a", "indentation"},
		{"orphan-subkey", "fraction: 0.5", "unknown key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.text)
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.text)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	sp, err := Parse("# header\n\nname: x\ndays: 7\n  \n# trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "x" || sp.Days != 7 {
		t.Errorf("spec = %+v", sp)
	}
	// Default weekday is Monday when unspecified.
	if sp.StartWeekday != time.Monday {
		t.Errorf("default weekday = %v", sp.StartWeekday)
	}
}

func TestParseWeekdayCaseInsensitive(t *testing.T) {
	for _, s := range []string{"monday", "Monday", "MONDAY"} {
		wd, err := parseWeekday(s)
		if err != nil || wd != time.Monday {
			t.Errorf("parseWeekday(%s) = %v, %v", s, wd, err)
		}
	}
}
