package bench

import (
	"fmt"
	"io"
	"time"

	"spate/internal/tasks"
	"spate/internal/telco"
)

// measure runs fn Iterations times and returns the mean duration.
func measure(iters int, fn func() error) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total / time.Duration(iters), nil
}

// task is one timed row of Figure 11 or 12.
type task struct {
	name string
	run  func(f tasks.Framework) error
}

// timeTasks builds a testbed over the whole trace and prints one row per
// task: its mean response time on each framework.
func timeTasks(w io.Writer, o Options, title string, list func(*testbed, telco.TimeRange) []task) error {
	o = o.withDefaults()
	tb, err := newTestbed(o, traceEpochs(o.genConfig(), o.Days))
	if err != nil {
		return err
	}
	defer tb.close()
	t := &table{title: title, header: []string{"task", "RAW", "SHAHED", "SPATE"}}
	wRange := telco.NewTimeRange(tb.cfg.Start, tb.cfg.Start.Add(time.Duration(o.Days)*24*time.Hour))
	for _, tk := range list(tb, wRange) {
		row := []string{tk.name}
		for _, f := range tb.fws {
			d, err := measure(o.Iterations, func() error { return tk.run(f) })
			if err != nil {
				return fmt.Errorf("bench: %s on %s: %w", tk.name, f.Name(), err)
			}
			row = append(row, fmtDur(d))
		}
		t.addRow(row...)
	}
	t.fprint(w)
	return nil
}

// fig11ResponseTimes reproduces Figure 11: response times of the simpler
// tasks T1–T5 over the complete dataset for RAW, SHAHED and SPATE. Paper
// shape: SPATE slightly slower than SHAHED for T1–T3 and T5 (it pays
// decompression), but 4–5x faster for the self-join T4 (its input streams
// are smaller); RAW is slowest overall because it scans everything.
func fig11ResponseTimes(w io.Writer, o Options) error {
	err := timeTasks(w, o, "Figure 11 — Response time for simpler tasks T1–T5 (mean of iterations)",
		func(tb *testbed, wRange telco.TimeRange) []task {
			e1 := telco.EpochOf(tb.cfg.Start) + telco.Epoch(9*2) // 09:00 snapshot
			// T4's nested loop is quadratic; bound its window to a morning so the
			// bench finishes (the paper bounds it by task definition, not window).
			wJoin := telco.NewTimeRange(tb.cfg.Start.Add(9*time.Hour), tb.cfg.Start.Add(11*time.Hour))
			return []task{
				{"T1 equality", func(f tasks.Framework) error {
					_, err := tasks.T1Equality(f, e1)
					return err
				}},
				{"T2 range", func(f tasks.Framework) error {
					_, err := tasks.T2Range(f, wRange)
					return err
				}},
				{"T3 aggregate", func(f tasks.Framework) error {
					_, err := tasks.T3Aggregate(f, wRange)
					return err
				}},
				{"T4 join", func(f tasks.Framework) error {
					_, err := tasks.T4Join(f, wJoin)
					return err
				}},
				{"T5 privacy", func(f tasks.Framework) error {
					_, _, err := tasks.T5Privacy(f, wRange, 5)
					return err
				}},
			}
		})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper shape: SPATE within a few seconds of SHAHED on T1-T3/T5")
	fmt.Fprintln(w, "(decompression overhead), 4-5x faster on the T4 join; RAW slowest.")
	return nil
}

// fig12HeavyTasks reproduces Figure 12: response times of the heavier
// Spark-parallelized tasks T6–T8 (log scale in the paper). These are
// CPU-bound, so SPATE stays close to the uncompressed frameworks while
// still storing ~10x less.
func fig12HeavyTasks(w io.Writer, o Options) error {
	err := timeTasks(w, o, "Figure 12 — Response time for heavier tasks T6–T8 (parallelized)",
		func(tb *testbed, wRange telco.TimeRange) []task {
			return []task{
				{"T6 statistics", func(f tasks.Framework) error {
					_, err := tasks.T6Statistics(f, tb.pool, wRange)
					return err
				}},
				{"T7 clustering", func(f tasks.Framework) error {
					_, err := tasks.T7Clustering(f, tb.pool, wRange, 8)
					return err
				}},
				{"T8 regression", func(f tasks.Framework) error {
					_, err := tasks.T8Regression(f, tb.pool, wRange)
					return err
				}},
			}
		})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper shape: T6-T8 are CPU-bound, so all frameworks land close;")
	fmt.Fprintln(w, "SPATE's benefit here is the ~10x storage reduction, not speed.")
	return nil
}
