package experiments

import (
	"bytes"
	"fmt"
	"io"
	"runtime"

	"github.com/coach-oss/coach/internal/par"
)

// Write runs the selected experiments over ctx and writes each one's
// header and tables to w in selection order: the text layout
// cmd/coach-experiments prints, or with markdown the EXPERIMENTS.md
// layout. Up to parallel experiments run at once (<= 0: GOMAXPROCS).
// Parallel runs buffer per experiment, so w receives the same bytes for
// any parallelism; a serial run streams each experiment as it finishes a
// table. The first failing experiment's error is returned after the
// output of every experiment before it.
func Write(w io.Writer, ctx *Context, selected []Experiment, parallel int, markdown bool) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel == 1 {
		for _, e := range selected {
			if err := render(w, ctx, e, markdown); err != nil {
				return err
			}
		}
		return nil
	}
	outs := make([]bytes.Buffer, len(selected))
	errs := make([]error, len(selected))
	par.ForEach(parallel, len(selected), func(i int) {
		errs[i] = render(&outs[i], ctx, selected[i], markdown)
	})
	for i := range selected {
		if errs[i] != nil {
			return errs[i]
		}
		if _, err := outs[i].WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// render runs one experiment and writes its header and tables to w.
func render(w io.Writer, ctx *Context, e Experiment, markdown bool) error {
	if markdown {
		fmt.Fprintf(w, "## %s (`%s`)\n\n**Paper:** %s\n\n", e.Title, e.ID, e.PaperClaim)
	} else {
		fmt.Fprintf(w, "### %s — %s\n", e.ID, e.Title)
		fmt.Fprintf(w, "paper: %s\n\n", e.PaperClaim)
	}
	tables, err := e.Run(ctx)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	for _, t := range tables {
		if markdown {
			err = t.Markdown(w)
		} else {
			err = t.Render(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
