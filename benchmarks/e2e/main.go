// Command e2e is the repository's end-to-end benchmark: it builds spate-gen
// and spate-server from the commit it stands in, generates a trace and every
// request from -seed, boots the server as a subprocess, drives it over
// loopback HTTP with two closed-loop clients, checks every answer against the
// flat text of the trace, and prints the end-to-end metrics by name and unit.
// With -trace 1 it hands over to benchmarks/layers, the traced in-process
// run that says which module spent the time. It knows the program only by
// its command-line flags and its HTTP API.
//
//	go run ./benchmarks/e2e -seed 1                      # all four workloads
//	go run ./benchmarks/e2e -seed 1 -workload scan-cold  # one, result as the last line
//	go run ./benchmarks/e2e -seed 1 -workload scan-cold -trace 1
//	go run ./benchmarks/e2e -compare a.jsonl b.jsonl
//	go run ./benchmarks/e2e -quick                       # smoke mode, never for claims
//
// benchmarks/run.sh wraps it, pointing the Go build cache and every temporary
// directory into the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"spate/benchmarks/harness"
)

type config struct {
	seed    int64
	seconds float64
	quick   bool
	root    string // the checkout
	build   string // root/.bench_build
	bin     string
	report  string
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four): "+strings.Join(harness.Workloads, ", "))
		seed     = flag.Int64("seed", 1, "seed of the trace and of every request")
		seconds  = flag.Float64("seconds", 10, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 = traced in-process run printing the per-layer metrics")
		quick    = flag.Bool("quick", false, "smoke mode: 5 s windows, smallest traces; never used for claims")
		compare  = flag.Bool("compare", false, "compare two report files: -compare a.jsonl b.jsonl")
		report   = flag.String("report", "", "report file runs are appended to (default .bench_build/reports/runs.jsonl)")
	)
	flag.Parse()
	if *compare {
		return runCompare(flag.Args())
	}
	root, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	cfg := &config{seed: *seed, seconds: *seconds, quick: *quick, root: root,
		build: filepath.Join(root, ".bench_build"), report: *report}
	if *quick {
		cfg.seconds = 5
	}
	cfg.bin = filepath.Join(cfg.build, "bin")
	if cfg.report == "" {
		cfg.report = filepath.Join(cfg.build, "reports", "runs.jsonl")
	}
	names := harness.Workloads
	if *workload != "" {
		if _, ok := harness.Specs(false)[*workload]; !ok {
			return fail(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(harness.Workloads, ", ")))
		}
		names = []string{*workload}
	}
	if err := os.MkdirAll(filepath.Dir(cfg.report), 0o755); err != nil {
		return fail(err)
	}
	if err := cfg.buildProgram(*trace == 1); err != nil {
		return fail(err)
	}
	code := 0
	for _, name := range names {
		spec := harness.Specs(cfg.quick)[name]
		var rep *harness.Report
		var err error
		if *trace == 1 {
			rep, err = cfg.runTraced(spec)
		} else {
			rep, err = cfg.runWorkload(spec)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		rep.Env = cfg.env()
		if err := harness.AppendReport(cfg.report, rep); err != nil {
			return fail(err)
		}
		printReport(rep)
		if !rep.Result.Correct {
			code = 1
		}
		if len(names) == 1 {
			line, err := json.Marshal(rep.Result)
			if err != nil {
				return fail(err)
			}
			fmt.Println(string(line))
		}
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	return 1
}

// buildProgram compiles the programs under test from the checkout.
func (c *config) buildProgram(traced bool) error {
	pkgs := []string{"./cmd/spate-gen", "./cmd/spate-server"}
	if traced {
		pkgs = []string{"./cmd/spate-gen", "./benchmarks/layers"}
	}
	if err := os.MkdirAll(c.bin, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", append([]string{"build", "-o", c.bin + string(filepath.Separator)}, pkgs...)...)
	cmd.Dir = c.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s: %w", strings.Join(pkgs, " "), err)
	}
	return nil
}

func (c *config) env() harness.Env {
	e := harness.Env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Quick: c.quick}
	// The driver's checkout is not a git repository; the commit is then
	// simply unknown.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = c.root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// genTrace runs spate-gen into dir.
func (c *config) genTrace(spec harness.Spec, dir string) error {
	cmd := exec.Command(filepath.Join(c.bin, "spate-gen"), "-out", dir,
		"-scale", fmt.Sprint(spec.GenScale), "-days", fmt.Sprint(spec.GenDays), "-seed", fmt.Sprint(c.seed))
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("spate-gen: %w: %s", err, out)
	}
	return nil
}

// workDir makes a fresh scratch directory inside the checkout.
func (c *config) workDir(name string) (string, error) {
	dir := filepath.Join(c.build, fmt.Sprintf("work-%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// runTraced generates the trace and hands it to the in-process traced run.
func (c *config) runTraced(spec harness.Spec) (*harness.Report, error) {
	work, err := c.workDir(spec.Name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	traceDir := filepath.Join(work, "trace")
	if err := c.genTrace(spec, traceDir); err != nil {
		return nil, err
	}
	out := filepath.Join(work, "layers.json")
	args := []string{"-workload", spec.Name, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds),
		"-tracedir", traceDir, "-work", work, "-out", out}
	if c.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(filepath.Join(c.bin, "layers"), args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+work)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var rep harness.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

func runCompare(args []string) int {
	if len(args) != 2 {
		return fail(fmt.Errorf("-compare takes two report files"))
	}
	a, err := harness.ReadReports(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := harness.ReadReports(args[1])
	if err != nil {
		return fail(err)
	}
	rows := harness.Compare(a, b)
	harness.PrintCompare(os.Stdout, rows)
	for _, r := range rows {
		if r.Verdict == harness.Worse {
			return 1
		}
	}
	return 0
}

// printReport writes a run's numbers for people: every metric by name with
// its unit, the per-class latency table with sample counts, side readings.
func printReport(r *harness.Report) {
	w := os.Stdout
	mode := "end-to-end"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed=%d window=%.1fs trace=%.1f MiB / %d rows  clients=%d", r.Workload, mode, r.Seed, r.Seconds, r.TraceMiB, r.TraceRows, r.Clients)
	if !r.Traced {
		fmt.Fprintf(w, "  ingested at set-up=%.1f MiB  client_busy_ratio=%.3f", r.IngestMiB, r.ClientBusyRatio)
	}
	fmt.Fprintln(w)
	if r.Seals > 0 || r.AppendRows > 0 {
		fmt.Fprintf(w, "   appended in the window: %d rows, %d epochs sealed\n", r.AppendRows, r.Seals)
	}
	if r.ServerFlags != "" {
		fmt.Fprintf(w, "   server: %s\n", r.ServerFlags)
	}
	names := make([]string, 0, len(r.Result.Metrics))
	for n := range r.Result.Metrics {
		names = append(names, n)
	}
	if r.Traced {
		sort.Strings(names)
	} else {
		names = names[:0]
		for _, m := range harness.EndToEnd {
			names = append(names, m.Name)
		}
	}
	if r.HostSpeed > 0 {
		fmt.Fprintf(w, "   host_speed=%.3f: timings below are at reference speed (a time as measured x host_speed, a rate / host_speed); the class table is as measured\n", r.HostSpeed)
	}
	for _, n := range names {
		v := r.Result.Metrics[n]
		fmt.Fprintf(w, "   %-34s %14.4f %s", n, v.Value, v.Unit)
		if raw, ok := r.Extra["measured."+n]; ok {
			fmt.Fprintf(w, "   (measured %.4f)", raw)
		}
		fmt.Fprintln(w)
	}
	if len(r.Classes) > 0 {
		fmt.Fprintf(w, "   %-12s %8s %8s %10s %10s %10s %10s\n", "class", "samples", "checked", "p50_ms", "p90_ms", "p95_ms", "p99_ms")
		for _, c := range r.Classes {
			fmt.Fprintf(w, "   %-12s %8d %8d %10.3f %10.3f %10.3f %10.3f\n", c.Class, c.Samples, c.Checked, c.P50, c.P90, c.P95, c.P99)
		}
	}
	if len(r.Extra) > 0 {
		keys := make([]string, 0, len(r.Extra))
		for k := range r.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !strings.HasPrefix(k, "measured.") {
				fmt.Fprintf(w, "   . %-32s %14.4f\n", k, r.Extra[k])
			}
		}
	}
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v\n", r.Result.Attempted, r.Result.Failed, r.Result.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   ! %s\n", e)
	}
}
