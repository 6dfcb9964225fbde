// Package bench regenerates every table and figure of the SPATE paper's
// evaluation (§IV-C Table I, §II-B Figure 4, §VIII Figures 7–12 and the
// §VIII-C storage totals), plus the ablation studies DESIGN.md calls out.
// Each experiment builds the needed frameworks over a synthetic trace and
// prints the same rows/series the paper reports; absolute numbers differ
// from the authors' 4-node cluster, but the comparative shape is the
// reproduction target.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spate/internal/compute"
	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/raw"
	"spate/internal/shahed"
	"spate/internal/snapshot"
	"spate/internal/tasks"
	"spate/internal/telco"

	_ "spate/internal/compress/all"
)

// Options parameterizes an experiment run.
type Options struct {
	// Scale is the generator scale in (0,1]; 1 approximates the paper's
	// 5 GB week (too large for a laptop bench — 0.02..0.1 is practical).
	Scale float64
	// Days is the trace length in days (the paper's trace spans 7).
	Days int
	// Iterations averages response-time measurements (paper: 5).
	Iterations int
	// Workers is the compute-pool parallelism for T6–T8.
	Workers int
	// Dir is the scratch directory for DFS clusters; empty = os.TempDir.
	Dir string
	// Seed drives the generator.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.02
	}
	if o.Days <= 0 {
		o.Days = 2
	}
	if o.Iterations <= 0 {
		o.Iterations = 3
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Dir == "" {
		o.Dir = os.TempDir()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) genConfig() gen.Config {
	cfg := gen.DefaultConfig(o.Scale)
	cfg.Seed = o.Seed
	return cfg
}

// table is a printable experiment result.
type table struct {
	title  string
	header []string
	rows   [][]string
}

// addRow appends a formatted row.
func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

// fprint renders the table with aligned columns.
func (t *table) fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.title)
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// fmtDur renders a duration with millisecond precision.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// fmtMB renders bytes as megabytes.
func fmtMB(b int64) string {
	return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
}

// testbed holds the three frameworks ingested over one epoch sequence.
type testbed struct {
	cfg  gen.Config
	fws  []tasks.Framework
	pool *compute.Pool
	// avgIngest tracks per-framework mean ingestion time per snapshot.
	avgIngest map[string]time.Duration
	dirs      []string
}

// close removes the testbed's scratch directories.
func (tb *testbed) close() {
	for _, d := range tb.dirs {
		os.RemoveAll(d)
	}
}

// framework returns the named framework.
func (tb *testbed) framework(name string) tasks.Framework {
	for _, f := range tb.fws {
		if f.Name() == name {
			return f
		}
	}
	return nil
}

// dirSeq provides unique scratch dir names.
var dirSeq int

// benchClusterConfig models the paper's testbed storage: 3-way replicated
// blocks on slow virtualized RAID-5 disks (writes ~25 MB/s per replica)
// with faster sequential reads (~150 MB/s). The asymmetry is what makes
// compression pay at ingest (fewer replicated bytes) while decompression
// still costs on reads — the trade the paper's Figures 7 and 11 show.
func benchClusterConfig() dfs.Config {
	return dfs.Config{
		BlockSize: 8 << 20, DataNodes: 4, Replication: 3,
		WriteMBps: 25, ReadMBps: 150,
	}
}

// newTestbed generates the trace's snapshots for the given epochs and
// ingests them into fresh RAW, SHAHED and SPATE instances, each on its own
// DFS cluster (as in the paper's testbed, where each framework stores its
// own representation).
func newTestbed(o Options, epochs []telco.Epoch) (*testbed, error) {
	o = o.withDefaults()
	g := gen.New(o.genConfig())
	w := &testbed{
		cfg: g.Config(), pool: compute.NewPool(o.Workers),
		avgIngest: map[string]time.Duration{},
	}
	mk := func() (*dfs.Cluster, error) {
		dirSeq++
		dir := filepath.Join(o.Dir, fmt.Sprintf("spate-bench-%d-%d", os.Getpid(), dirSeq))
		w.dirs = append(w.dirs, dir)
		return dfs.NewCluster(dir, benchClusterConfig())
	}
	fsRaw, err := mk()
	if err != nil {
		return nil, err
	}
	fsSh, err := mk()
	if err != nil {
		return nil, err
	}
	fsSp, err := mk()
	if err != nil {
		return nil, err
	}
	rw, err := raw.Open(fsRaw, g.CellTable())
	if err != nil {
		return nil, err
	}
	sh, err := shahed.Open(fsSh, g.CellTable())
	if err != nil {
		return nil, err
	}
	eng, err := core.Open(fsSp, g.CellTable(), core.Options{})
	if err != nil {
		return nil, err
	}
	w.fws = []tasks.Framework{tasks.Raw{S: rw}, tasks.Shahed{S: sh}, tasks.Spate{E: eng}}

	totals := map[string]time.Duration{}
	for _, e := range epochs {
		sn := snapshot.New(e)
		sn.Add(g.CDRTable(e))
		sn.Add(g.NMSTable(e))
		for _, f := range w.fws {
			st, err := f.Ingest(sn)
			if err != nil {
				w.close()
				return nil, fmt.Errorf("bench: %s ingest %v: %w", f.Name(), e, err)
			}
			totals[f.Name()] += st.Total
		}
	}
	for _, f := range w.fws {
		f.Finish()
		if len(epochs) > 0 {
			w.avgIngest[f.Name()] = totals[f.Name()] / time.Duration(len(epochs))
		}
	}
	return w, nil
}

// traceEpochs returns the trace's epoch sequence: days consecutive days
// from the generator start.
func traceEpochs(cfg gen.Config, days int) []telco.Epoch {
	e0 := telco.EpochOf(cfg.Start)
	out := make([]telco.Epoch, 0, days*telco.EpochsPerDay)
	for i := 0; i < days*telco.EpochsPerDay; i++ {
		out = append(out, e0+telco.Epoch(i))
	}
	return out
}

// dayPeriod names one of the paper's four day-period datasets (§VII-C).
type dayPeriod struct {
	name     string
	from, to int // hours [from, to); wraps over midnight when from > to
}

// dayPeriods are the paper's Morning/Afternoon/Evening/Night partitions.
var dayPeriods = []dayPeriod{
	{"Morning", 5, 12},
	{"Afternoon", 12, 17},
	{"Evening", 17, 21},
	{"Night", 21, 5},
}

// filterByPeriod keeps epochs whose start hour falls in the period.
func filterByPeriod(epochs []telco.Epoch, p dayPeriod) []telco.Epoch {
	var out []telco.Epoch
	for _, e := range epochs {
		h := e.Start().Hour()
		in := false
		if p.from <= p.to {
			in = h >= p.from && h < p.to
		} else {
			in = h >= p.from || h < p.to
		}
		if in {
			out = append(out, e)
		}
	}
	return out
}

// filterByWeekday keeps epochs on the given weekday (the paper's seven
// Mon..Sun zones, §VII-C).
func filterByWeekday(epochs []telco.Epoch, wd time.Weekday) []telco.Epoch {
	var out []telco.Epoch
	for _, e := range epochs {
		if e.Start().Weekday() == wd {
			out = append(out, e)
		}
	}
	return out
}
