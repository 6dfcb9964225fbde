package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Metric describes one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change counts
// as a regression; per-layer metrics carry none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd is the list of end-to-end metrics, the same on every workload.
// BENCHMARK.json repeats it; a unit test keeps the two in step.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"explore_p50_ms", "ms", "lower", 0.25},
	{"class_p50_gm_ms", "ms", "lower", 0.25},
	{"read_p90_ms", "ms", "lower", 0.25},
	{"cpu_s_per_kop", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"stored_bytes_per_raw_byte", "ratio", "lower", 0.02},
}

// Value is a measured number with its unit, as the result line carries it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints on standard output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// ClassStats is the latency table row of one operation class.
type ClassStats struct {
	Class   string  `json:"class"`
	Samples int     `json:"samples"`
	Checked int     `json:"checked"` // answers compared with the oracle
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	P95     float64 `json:"p95_ms"`
	P99     float64 `json:"p99_ms"`
}

// Env is the header of a run report.
type Env struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Quick      bool   `json:"quick,omitempty"`
}

// Report is one run of one workload, appended as one line to the report
// file (JSON Lines), so that a file holds a set of runs to compare.
type Report struct {
	Env      Env     `json:"env"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"seconds"` // length of the timed window as run

	// Sizes actually used.
	TraceMiB    float64 `json:"trace_mib"`
	IngestMiB   float64 `json:"ingest_mib"` // the part of the trace ingested at set-up
	TraceRows   int64   `json:"trace_rows"`
	Clients     int     `json:"clients"`
	Seals       int64   `json:"seals,omitempty"`       // epochs sealed inside the timed window
	AppendRows  int64   `json:"append_rows,omitempty"` // rows acknowledged inside the timed window
	ServerFlags string  `json:"server_flags,omitempty"`

	ClientBusyRatio float64 `json:"client_busy_ratio"`
	// HostSpeed is the host's speed during the timed window as a share of
	// the reference speed (benchmarks/e2e/calib.go). The end-to-end timings
	// in Result are at reference speed; Classes and Extra are as measured.
	HostSpeed float64 `json:"host_speed,omitempty"`

	Result  Result             `json:"result"`
	Classes []ClassStats       `json:"classes,omitempty"`
	Extra   map[string]float64 `json:"extra,omitempty"`  // scraped counters and other side readings
	Errors  []string           `json:"errors,omitempty"` // first few failures, for diagnosis
}

// AppendReport adds r as one line to the file at path.
func AppendReport(path string, r *Report) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReports loads every run of a report file.
func ReadReports(path string) ([]Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Verdicts of a comparison row.
const (
	Unchanged  = "unchanged"  // within the bound, and the spread resolves it
	Better     = "better"     // improved by more than the bound
	Worse      = "WORSE"      // worse than the parent by more than the bound
	Unresolved = "unresolved" // run-to-run spread exceeds the bound
	Single     = "single-run" // one run a side: no spread to judge with
)

// CompareRow is one (workload, metric) pair of a comparison.
type CompareRow struct {
	Workload, Metric, Unit string
	A, B                   float64 // medians
	SpreadA, SpreadB       float64 // IQR / median; 0 with fewer than 2 runs
	Delta                  float64 // change for the worse as a share of A (negative = better)
	Bound                  float64
	Verdict                string
	RunsA, RunsB           int
}

// ClassBound is the share by which a comparison lets one operation class's
// median latency, or the append throughput, get worse. class_p50_gm_ms
// dilutes a single class by the number of classes in the workload; the
// comparison therefore holds every class to the bound by itself.
const ClassBound = 0.25

// gated lists what a comparison holds a run to: every end-to-end metric,
// the median latency of each operation class of the run's latency table
// and, where rows were appended, the rows acknowledged per second.
func (r *Report) gated() ([]Metric, []float64) {
	var ms []Metric
	var vs []float64
	// The latency table and the side readings are as measured; like the
	// end-to-end timings they are compared at reference speed.
	speed := r.HostSpeed
	if speed == 0 {
		speed = 1
	}
	for _, m := range EndToEnd {
		if v, ok := r.Result.Metrics[m.Name]; ok {
			ms, vs = append(ms, m), append(vs, v.Value)
		}
	}
	for _, c := range r.Classes {
		name := c.Class + "_p50_ms"
		if _, ok := r.Result.Metrics[name]; ok {
			continue // explore_p50_ms is an end-to-end metric already
		}
		ms = append(ms, Metric{Name: name, Unit: "ms", Better: "lower", Bound: ClassBound})
		vs = append(vs, c.P50*speed)
	}
	if v, ok := r.Extra["append_rows_s"]; ok {
		ms = append(ms, Metric{Name: "append_rows_s", Unit: "1/s", Better: "higher", Bound: ClassBound})
		vs = append(vs, v/speed)
	}
	return ms, vs
}

// Compare sets two sets of runs side by side, workload by workload: the
// end-to-end metrics, each class's median and the append throughput. Only
// untraced runs count: end-to-end numbers are taken with tracing off.
func Compare(a, b []Report) []CompareRow {
	type series struct {
		metrics []Metric             // in reporting order
		values  map[string][]float64 // by metric name, one value a run
	}
	collect := func(rs []Report) map[string]*series {
		out := make(map[string]*series)
		for i := range rs {
			r := &rs[i]
			if r.Traced {
				continue
			}
			s := out[r.Workload]
			if s == nil {
				s = &series{values: make(map[string][]float64)}
				out[r.Workload] = s
			}
			ms, vs := r.gated()
			for j, m := range ms {
				if _, ok := s.values[m.Name]; !ok {
					s.metrics = append(s.metrics, m)
				}
				s.values[m.Name] = append(s.values[m.Name], vs[j])
			}
		}
		return out
	}
	ma, mb := collect(a), collect(b)
	var workloads []string
	for w := range ma {
		if _, ok := mb[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	var rows []CompareRow
	for _, w := range workloads {
		for _, m := range ma[w].metrics {
			xa, xb := ma[w].values[m.Name], mb[w].values[m.Name]
			if len(xb) == 0 {
				continue
			}
			row := CompareRow{Workload: w, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
				A: Median(xa), B: Median(xb), RunsA: len(xa), RunsB: len(xb)}
			if len(xa) > 1 {
				row.SpreadA = Spread(xa)
			}
			if len(xb) > 1 {
				row.SpreadB = Spread(xb)
			}
			if row.A != 0 {
				row.Delta = (row.B - row.A) / row.A
				if m.Better == "higher" {
					row.Delta = -row.Delta
				}
			}
			switch {
			case row.SpreadA > m.Bound || row.SpreadB > m.Bound:
				row.Verdict = Unresolved
			case row.Delta > m.Bound:
				row.Verdict = Worse
			case row.Delta < -m.Bound:
				row.Verdict = Better
			case len(xa) < 2 || len(xb) < 2:
				row.Verdict = Single
			default:
				row.Verdict = Unchanged
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// PrintCompare writes the comparison as a table.
func PrintCompare(w io.Writer, rows []CompareRow) {
	fmt.Fprintf(w, "%-13s %-34s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "worse%", "bound%", "spreadA%", "spreadB%", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-34s %12.4f %12.4f %+8.2f %7.1f %8.2f %8.2f  %s (%d/%d runs)\n",
			r.Workload, r.Metric+" ["+r.Unit+"]", r.A, r.B, 100*r.Delta, 100*r.Bound,
			100*r.SpreadA, 100*r.SpreadB, r.Verdict, r.RunsA, r.RunsB)
	}
}
