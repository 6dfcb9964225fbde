package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"spate/internal/core"
	"spate/internal/geo"
	"spate/internal/tasks"
	"spate/internal/telco"
)

// windowSweep measures aggregate-query response time as the temporal
// window grows — the paper's headline claim that SPATE achieves "a data
// exploration response time that is independent of the queried temporal
// window". RAW scans every stored byte regardless of the window; SHAHED
// answers from its retained per-leaf summaries; SPATE answers from
// day/month/year summaries on the exact path and from the single covering
// node on the fast path (§VI-A).
func windowSweep(w io.Writer, o Options) error {
	o = o.withDefaults()
	days := o.Days
	if days < 2 {
		days = 2
	}
	tb, err := newTestbed(o, traceEpochs(o.genConfig(), days))
	if err != nil {
		return err
	}
	defer tb.close()

	rawFw := tb.framework("RAW")
	shahed := tb.framework("SHAHED").(tasks.Shahed).S
	spate := tb.framework("SPATE").(tasks.Spate).E

	t := &table{
		title: "Window sweep — aggregate response time vs window length",
		header: []string{"window", "RAW scan", "SHAHED index", "SPATE exact", "SPATE fast (§VI-A)",
			"SPATE rows"},
	}
	windows := []time.Duration{
		3 * time.Hour, 6 * time.Hour, 12 * time.Hour,
		24 * time.Hour, time.Duration(days) * 24 * time.Hour,
	}
	for _, span := range windows {
		win := telco.NewTimeRange(tb.cfg.Start, tb.cfg.Start.Add(span))

		dRaw, err := measure(o.Iterations, func() error {
			rows := 0
			return countScan(rawFw, win, &rows)
		})
		if err != nil {
			return err
		}
		dShahed, err := measure(o.Iterations, func() error {
			_, err := shahed.Aggregate(win, geo.Rect{})
			return err
		})
		if err != nil {
			return err
		}
		var spateRows int64
		dExact, err := measure(o.Iterations, func() error {
			spate.ClearCache() // measure real work, not the result cache
			res, err := spate.Explore(core.Query{Window: win})
			if err == nil {
				spateRows = res.Summary.Rows
			}
			return err
		})
		if err != nil {
			return err
		}
		dFast, err := measure(o.Iterations, func() error {
			spate.ClearCache()
			_, err := spate.Explore(core.Query{Window: win, Fast: true})
			return err
		})
		if err != nil {
			return err
		}
		t.addRow(span.String(), fmtDur(dRaw), fmtDur(dShahed),
			fmtDur(dExact), fmtDur(dFast), fmt.Sprint(spateRows))
	}
	t.fprint(w)
	fmt.Fprintln(w, "\npaper shape: RAW grows with the window (full scans); SPATE's exact")
	fmt.Fprintln(w, "path flattens once windows swallow sealed days, and the fast path is")
	fmt.Fprintln(w, "constant-time at any window length (the result cache is cleared")
	fmt.Fprintln(w, "between iterations so timings reflect real work).")
	return nil
}

// countScan counts rows through a framework scan (the RAW query model).
func countScan(f tasks.Framework, w telco.TimeRange, rows *int) error {
	return f.Scan(context.Background(), w, []string{"CDR", "NMS"}, func(_ string, tab *telco.Table) error {
		*rows += tab.Len()
		return nil
	})
}
