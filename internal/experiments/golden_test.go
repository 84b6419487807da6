package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_small.txt from this run")

const goldenPath = "testdata/paper_small.txt"

// TestPaperGolden is the reproduction's numbers as a checked artifact:
// every registered experiment at small scale, rendered as
// cmd/coach-experiments prints it, must match testdata/paper_small.txt
// byte for byte once the wall-clock cells are masked. It runs the
// registry with GOMAXPROCS experiments in flight, so `-cpu 1,2,8` checks
// the file at several parallelisms. A change that moves a paper number
// regenerates the file with -update in its own diff.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the whole registry is skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("the whole registry is checked in non-race builds")
	}
	var buf bytes.Buffer
	if err := Write(&buf, NewContext(ScaleSmall), All(), 0, false); err != nil {
		t.Fatal(err)
	}
	got := maskWallClock(buf.String())
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section, diffs := "", 0
	for i := 0; i < max(len(gl), len(wl)); i++ {
		g, w := lineAt(gl, i), lineAt(wl, i)
		if strings.HasPrefix(w, "### ") {
			section = w
		}
		if g == w {
			continue
		}
		if diffs++; diffs <= 5 {
			t.Errorf("%s:%d (in %q)\n  want: %s\n  got:  %s", goldenPath, i+1, section, w, g)
		}
	}
	t.Errorf("%d lines differ from %s; rerun with -update if the change is intended", diffs, goldenPath)
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

// wallClockRows names, per experiment, the rows whose first cell after
// the matched prefix times the host rather than the model: sec45's three
// timing rows and abl-forest's train-time column. They are the only
// cells that differ between runs.
var wallClockRows = map[string]*regexp.Regexp{
	"sec45":      regexp.MustCompile(`^(long-term predictor +training time|scheduler +predict\+place per VM|local predictor +train\+inference cycle) +`),
	"abl-forest": regexp.MustCompile(`^\d+ +`),
}

// cellRe is one table cell with the padding that follows it.
var cellRe = regexp.MustCompile(`^\S+( *)`)

// maskWallClock replaces every wall-clock cell with <wall>, padded to the
// cell's width so the table keeps its alignment.
func maskWallClock(out string) string {
	lines := strings.Split(out, "\n")
	var rows *regexp.Regexp
	for i, line := range lines {
		if id, ok := strings.CutPrefix(line, "### "); ok {
			rows = wallClockRows[strings.Fields(id)[0]]
			continue
		}
		if rows == nil {
			continue
		}
		p := rows.FindStringIndex(line)
		if p == nil {
			continue
		}
		rest := line[p[1]:]
		m := cellRe.FindStringSubmatch(rest)
		if m == nil {
			continue
		}
		cell := "<wall>"
		if m[1] != "" {
			cell += strings.Repeat(" ", max(1, utf8.RuneCountInString(m[0])-len(cell)))
		}
		lines[i] = line[:p[1]] + cell + rest[len(m[0]):]
	}
	return strings.Join(lines, "\n")
}
