package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// The text form of a Spec is a small, strict, YAML-ish format:
// two-space indentation, "key: value" pairs, "- " list items under the
// "classes:", "surges:" and "faults:" sections, and full-line "#"
// comments.
// Distributions and arrival processes are one-line expressions
// ("lognormal mean=40 sigma=1.1", "gamma cv=2.5"). Every preset's text
// is in presets/. See docs/DESIGN.md §11 for the full grammar and
// docs/experiments.md for examples.

// Parse reads a workload spec from its text form. It performs only
// syntactic checks; call Validate on the result before use.
func Parse(text string) (*Spec, error) {
	sp := &Spec{StartWeekday: time.Monday}
	// section is the open indent-0 block; item points at the class or
	// surge the current "- " item populates.
	section := ""
	var class *Class
	var surge *Surge
	var flt *Fault
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimRight(raw, " \r")
		trimmed := strings.TrimLeft(line, " ")
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		if strings.HasPrefix(trimmed, "\t") {
			return nil, parseErr(ln, "tab indentation (use spaces)")
		}
		indent := len(line) - len(trimmed)
		item := strings.HasPrefix(trimmed, "- ")
		if item {
			trimmed = trimmed[2:]
		}
		key, value, err := splitKV(ln, trimmed)
		if err != nil {
			return nil, err
		}
		switch {
		case indent == 0 && !item:
			class, surge, flt = nil, nil, nil
			section = ""
			switch key {
			case "seasonality", "classes", "surges", "faults":
				if value != "" {
					return nil, parseErr(ln, "section %q takes no value", key)
				}
				section = key
			default:
				if err := sp.setTop(key, value); err != nil {
					return nil, parseErr(ln, "%v", err)
				}
			}
		case indent == 2 && item && section == "classes":
			sp.Classes = append(sp.Classes, Class{})
			class = &sp.Classes[len(sp.Classes)-1]
			if err := class.set(key, value); err != nil {
				return nil, parseErr(ln, "%v", err)
			}
		case indent == 2 && item && section == "surges":
			sp.Surges = append(sp.Surges, Surge{Cluster: -1})
			surge = &sp.Surges[len(sp.Surges)-1]
			if err := surge.set(key, value); err != nil {
				return nil, parseErr(ln, "%v", err)
			}
		case indent == 2 && item && section == "faults":
			sp.Faults = append(sp.Faults, Fault{Cluster: -1, Server: -1})
			flt = &sp.Faults[len(sp.Faults)-1]
			if err := flt.set(key, value); err != nil {
				return nil, parseErr(ln, "%v", err)
			}
		case indent == 2 && !item && section == "seasonality":
			if err := sp.Seasonality.set(key, value); err != nil {
				return nil, parseErr(ln, "%v", err)
			}
		case indent == 4 && !item && class != nil:
			if err := class.set(key, value); err != nil {
				return nil, parseErr(ln, "%v", err)
			}
		case indent == 4 && !item && surge != nil:
			if err := surge.set(key, value); err != nil {
				return nil, parseErr(ln, "%v", err)
			}
		case indent == 4 && !item && flt != nil:
			if err := flt.set(key, value); err != nil {
				return nil, parseErr(ln, "%v", err)
			}
		default:
			return nil, parseErr(ln, "unexpected indentation %d", indent)
		}
	}
	return sp, nil
}

func parseErr(ln int, format string, args ...any) error {
	return fmt.Errorf("scenario: line %d: %s", ln+1, fmt.Sprintf(format, args...))
}

func splitKV(ln int, s string) (key, value string, err error) {
	i := strings.Index(s, ":")
	if i < 0 {
		return "", "", parseErr(ln, "missing ':' in %q", s)
	}
	return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:]), nil
}

func (sp *Spec) setTop(key, value string) error {
	switch key {
	case "name":
		sp.Name = value
	case "seed":
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fmt.Errorf("seed %q: not an integer", value)
		}
		sp.Seed = v
	case "days":
		return setInt(&sp.Days, key, value)
	case "vms":
		return setInt(&sp.VMs, key, value)
	case "subscriptions":
		return setInt(&sp.Subscriptions, key, value)
	case "clusters":
		return setInt(&sp.Clusters, key, value)
	case "start-weekday":
		wd, err := parseWeekday(value)
		if err != nil {
			return err
		}
		sp.StartWeekday = wd
	case "util-quantum":
		return setFloat(&sp.UtilQuantum, key, value)
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

func (s *Seasonality) set(key, value string) error {
	switch key {
	case "diurnal-amp":
		return setFloat(&s.DiurnalAmp, key, value)
	case "peak-hour":
		return setFloat(&s.PeakHour, key, value)
	case "weekend-factor":
		return setFloat(&s.WeekendFactor, key, value)
	default:
		return fmt.Errorf("unknown seasonality key %q", key)
	}
}

func (c *Class) set(key, value string) error {
	switch key {
	case "name":
		c.Name = value
	case "fraction":
		return setFloat(&c.Fraction, key, value)
	case "archetype":
		if value == "mixed" {
			value = ""
		}
		c.Archetype = value
	case "size":
		if value == "mixed" {
			value = ""
		}
		c.Size = value
	case "clusters":
		for _, f := range strings.Split(value, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("clusters %q: not an integer list", value)
			}
			c.Clusters = append(c.Clusters, v)
		}
	case "arrival":
		a, err := parseArrival(value)
		if err != nil {
			return err
		}
		c.Arrival = a
	case "lifetime":
		d, err := parseDist(value)
		if err != nil {
			return err
		}
		c.Lifetime = d
	case "working-set":
		d, err := parseDist(value)
		if err != nil {
			return err
		}
		c.WorkingSet = d
	default:
		return fmt.Errorf("unknown class key %q", key)
	}
	return nil
}

func (sg *Surge) set(key, value string) error {
	switch key {
	case "kind":
		sg.Kind = value
	case "classes":
		for _, f := range strings.Split(value, ",") {
			if f = strings.TrimSpace(f); f != "" {
				sg.Classes = append(sg.Classes, f)
			}
		}
	case "day":
		return setFloat(&sg.Day, key, value)
	case "duration-hours":
		return setFloat(&sg.DurationHours, key, value)
	case "rate-mult":
		return setFloat(&sg.RateMult, key, value)
	case "util-mult":
		return setFloat(&sg.UtilMult, key, value)
	case "cluster":
		return setInt(&sg.Cluster, key, value)
	default:
		return fmt.Errorf("unknown surge key %q", key)
	}
	return nil
}

func (f *Fault) set(key, value string) error {
	switch key {
	case "kind":
		f.Kind = value
	case "day":
		return setFloat(&f.Day, key, value)
	case "duration-hours":
		return setFloat(&f.DurationHours, key, value)
	case "recover-hours":
		return setFloat(&f.RecoverHours, key, value)
	case "mtbf-hours":
		return setFloat(&f.MTBFHours, key, value)
	case "delay-ms":
		return setFloat(&f.DelayMs, key, value)
	case "jitter-ms":
		return setFloat(&f.JitterMs, key, value)
	case "cluster":
		return setInt(&f.Cluster, key, value)
	case "server":
		return setInt(&f.Server, key, value)
	case "phase":
		f.Phase = value
	case "nth":
		return setInt(&f.Nth, key, value)
	default:
		return fmt.Errorf("unknown fault key %q", key)
	}
	return nil
}

func setInt(dst *int, key, value string) error {
	v, err := strconv.Atoi(value)
	if err != nil {
		return fmt.Errorf("%s %q: not an integer", key, value)
	}
	*dst = v
	return nil
}

func setFloat(dst *float64, key, value string) error {
	v, err := parseFinite(value)
	if err != nil {
		return fmt.Errorf("%s %q: %v", key, value, err)
	}
	*dst = v
	return nil
}

// parseFinite parses a finite float (a cosmetic trailing "h" unit as in
// "36h" is dropped; NaN and infinities are rejected so specs stay
// comparable and round-trippable).
func parseFinite(s string) (float64, error) {
	s = strings.TrimSuffix(s, "h")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("not a number")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("not finite")
	}
	return v, nil
}

// parseArrival reads "poisson", "gamma cv=2.5" or "weibull shape=0.7".
func parseArrival(s string) (Arrival, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return Arrival{}, fmt.Errorf("empty arrival")
	}
	p, err := ParseProcess(fields[0])
	if err != nil {
		return Arrival{}, err
	}
	a := Arrival{Process: p}
	params, err := parseParams(fields[1:])
	if err != nil {
		return Arrival{}, fmt.Errorf("arrival %q: %v", s, err)
	}
	for k, v := range params {
		switch {
		case k == "cv" && p == Gamma:
			a.CV = v
		case k == "shape" && p == WeibullArrivals:
			a.Shape = v
		default:
			return Arrival{}, fmt.Errorf("arrival %q: unknown parameter %q", s, k)
		}
	}
	return a, nil
}

// parseDist reads "<kind> key=value ..." distribution expressions.
func parseDist(s string) (Dist, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return Dist{}, fmt.Errorf("empty distribution")
	}
	k, err := ParseDistKind(fields[0])
	if err != nil {
		return Dist{}, err
	}
	d := Dist{Kind: k}
	params, err := parseParams(fields[1:])
	if err != nil {
		return Dist{}, fmt.Errorf("distribution %q: %v", s, err)
	}
	allowed := map[DistKind][]string{
		DistFixed:       {"value"},
		DistUniform:     {"min", "max"},
		DistExponential: {"mean"},
		DistLognormal:   {"mean", "sigma"},
		DistWeibull:     {"mean", "shape"},
	}[k]
	for key, v := range params {
		ok := false
		for _, a := range allowed {
			if key == a {
				ok = true
			}
		}
		if !ok {
			return Dist{}, fmt.Errorf("distribution %q: unknown parameter %q", s, key)
		}
		switch key {
		case "value":
			d.Value = v
		case "min":
			d.Min = v
		case "max":
			d.Max = v
		case "mean":
			d.Mean = v
		case "sigma":
			d.Sigma = v
		case "shape":
			d.Shape = v
		}
	}
	return d, nil
}

func parseParams(fields []string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("parameter %q is not key=value", f)
		}
		x, err := parseFinite(v)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %v", f, err)
		}
		out[k] = x
	}
	return out, nil
}

func parseWeekday(s string) (time.Weekday, error) {
	for wd := time.Sunday; wd <= time.Saturday; wd++ {
		if strings.EqualFold(s, wd.String()) {
			return wd, nil
		}
	}
	return 0, fmt.Errorf("unknown weekday %q", s)
}
