// Command layers is the traced run of the repository's benchmark: it
// assembles the stack spate-server runs for a workload in this process, from
// the modules' public constructors, replays the workload's seeded ops over
// loopback HTTP and as direct calls, and records spans from its own
// decorators around the calls into each module. It prints the per-layer
// metrics; benchmarks/e2e starts it for -trace 1 and hands it the trace.
//
// Spans inside the program are a later issue: nothing under internal/ is
// changed or instrumented for this run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"spate/benchmarks/harness"
	_ "spate/internal/compress/all"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to trace")
		seed     = flag.Int64("seed", 1, "seed of every request (the trace in -tracedir was generated from it)")
		seconds  = flag.Float64("seconds", 10, "length of the replay pass; the load pass before it takes a third as long")
		traceDir = flag.String("tracedir", "", "text trace written by spate-gen")
		work     = flag.String("work", "", "scratch directory for stores and logs")
		out      = flag.String("out", "", "file the run's report is written to")
		quick    = flag.Bool("quick", false, "smoke mode")
	)
	flag.Parse()
	spec, ok := harness.Specs(*quick)[*workload]
	if !ok || *traceDir == "" || *work == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "layers: -workload, -tracedir, -work and -out are required")
		return 2
	}
	rep, err := trace(spec, *seed, *seconds, *traceDir, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		return 1
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		return 1
	}
	return 0
}

// run carries the state of one traced run.
type trun struct {
	st   *stack
	seed int64
	m    map[string]float64 // per-layer metrics measured so far
	rep  *harness.Report

	direct       map[string][]float64 // direct-call latencies per class, ms
	rowsReturned float64              // rows in the direct SQL result sets
	sqlOps       float64              // direct SQL statements run
	sqlSelfNs    int64                // their time inside the SQL engine itself
	scanNs       int64                // and below the framework seam

	attempted, failed int64
}

func (t *trun) fail(format string, args ...any) {
	t.failed++
	if len(t.rep.Errors) < 8 {
		t.rep.Errors = append(t.rep.Errors, fmt.Sprintf(format, args...))
	}
}

// check counts one operation and records err, if any, as its failure.
func (t *trun) check(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.fail("%s: %v", what, err)
		return false
	}
	return true
}

func trace(spec harness.Spec, seed int64, seconds float64, traceDir, work string) (*harness.Report, error) {
	rec := newRecorder()
	st, err := buildStack(spec, rec, traceDir, work)
	if err != nil {
		return nil, err
	}
	defer st.close()
	t := &trun{st: st, seed: seed, m: make(map[string]float64), direct: make(map[string][]float64)}
	t.rep = &harness.Report{Workload: spec.Name, Seed: seed, Traced: true, Seconds: seconds, Clients: 2,
		Extra: make(map[string]float64)}
	t.rep.Extra["ingest_s"] = st.ingestS
	t.rep.TraceMiB, t.rep.TraceRows = traceSize(traceDir)

	cells, err := harness.LoadCells(traceDir)
	if err != nil {
		return nil, err
	}
	fixed, ops := spec.Ops(seed, 1<<15, st.window.From, st.window.To, cells)

	srv := httptest.NewServer(st.handler)
	defer srv.Close()
	lp := &loopback{t: t, base: srv.URL, ops: ops}
	if err := lp.start(fixed); err != nil {
		return nil, err
	}
	defer lp.close()
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	// The replay pass sets two instruments against each other over different
	// operations; what it has --seconds of is samples to do that with.
	lp.loadPass(share(0.35))
	t.replayPass(lp, share(1))

	t.sqlClasses(cells)
	t.micro()
	t.streaming(lp)
	t.sideEngines()
	t.rawBaseline(cells)
	t.heavyTasks()
	t.lifecycle()

	t.rep.Result.Metrics = make(map[string]harness.Value, len(harness.PerLayer))
	for _, pm := range harness.PerLayer {
		t.rep.Result.Metrics[pm.Name] = harness.Value{Value: t.m[pm.Name], Unit: pm.Unit}
	}
	t.rep.Result.Attempted = t.attempted
	t.rep.Result.Failed = t.failed
	t.rep.Result.Correct = t.failed == 0
	return t.rep, nil
}

// traceSize is the text size of a trace's CDR and NMS files and their
// number of lines.
func traceSize(dir string) (mib float64, rows int64) {
	var size int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() || d.Name() == "CELL" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err == nil {
			size += int64(len(b))
			rows += int64(bytes.Count(b, []byte{'\n'}))
		}
		return nil
	})
	return float64(size) / (1 << 20), rows
}
