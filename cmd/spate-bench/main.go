// Command spate-bench regenerates the tables and figures of the SPATE
// paper's evaluation on a synthetic paper-shaped trace.
//
// Usage:
//
//	spate-bench -exp list
//	spate-bench -exp all     -scale 0.02 -days 2
//	spate-bench -exp fig11   -scale 0.05 -days 1 -iters 5
//	spate-bench -exp fig7    # Figures 7 and 8 from one ingest
//
// Absolute numbers depend on the host; the comparative shape (who wins,
// by roughly what factor) is the reproduction target. This is the paper's
// reproduction record, not a regression gate: whether a change is slower
// is answered by benchmarks/run.sh --compare against BENCHMARK.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"spate/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "list", "experiment name, 'all', or 'list'")
		scale   = flag.Float64("scale", 0.02, "generator scale in (0,1]; 1 ~ the 5GB paper trace")
		days    = flag.Int("days", 2, "trace length in days (weekday figures force >= 7)")
		iters   = flag.Int("iters", 3, "iterations per response-time measurement (paper: 5)")
		workers = flag.Int("workers", 0, "compute-pool parallelism (0 = GOMAXPROCS)")
		seed    = flag.Int64("seed", 1, "generator seed")
		dir     = flag.String("dir", "", "scratch directory (default: system temp)")
	)
	flag.Parse()

	o := bench.Options{
		Scale: *scale, Days: *days, Iterations: *iters,
		Workers: *workers, Seed: *seed, Dir: *dir,
	}

	switch *exp {
	case "list":
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-17s %s\n", e.Name, e.Desc)
		}
		fmt.Println("  all               run everything")
		return
	case "all":
		for _, e := range bench.Experiments() {
			start := time.Now()
			fmt.Printf("\n########## %s — %s\n", e.Name, e.Desc)
			if err := e.Run(os.Stdout, o); err != nil {
				fmt.Fprintf(os.Stderr, "spate-bench: %s: %v\n", e.Name, err)
				os.Exit(1)
			}
			fmt.Printf("[%s done in %v]\n", e.Name, time.Since(start).Round(time.Millisecond))
		}
		return
	default:
		e, err := bench.Lookup(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spate-bench:", err)
			os.Exit(2)
		}
		if err := e.Run(os.Stdout, o); err != nil {
			fmt.Fprintf(os.Stderr, "spate-bench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
}
