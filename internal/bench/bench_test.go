package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"spate/internal/telco"
)

// tinyOptions keeps experiment tests fast: a sliver of the trace.
func tinyOptions(t *testing.T) Options {
	t.Helper()
	return Options{Scale: 0.001, Days: 1, Iterations: 1, Workers: 1, Dir: t.TempDir(), Seed: 1}
}

// experimentTitles names, per experiment, the table titles its output must
// hold: every figure or table it claims to reproduce.
var experimentTitles = map[string][]string{
	"fig4":             {"Figure 4"},
	"table1":           {"Table I"},
	"fig7":             {"Figure 7", "Figure 8"},
	"fig8":             {"Figure 8"},
	"fig9":             {"Figure 9", "Figure 10"},
	"fig10":            {"Figure 10"},
	"fig11":            {"Figure 11"},
	"fig12":            {"Figure 12"},
	"space":            {"§VIII-C"},
	"window":           {"Window sweep"},
	"ablate-codec":     {"Ablation — storage codec"},
	"ablate-decay":     {"Ablation — decay policy"},
	"ablate-leafindex": {"Ablation — per-leaf spatial pruning"},
	"ablate-theta":     {"Ablation — highlight threshold"},
}

// TestEveryExperimentRuns runs every experiment and every figure alias
// through Lookup, as `spate-bench -exp <name>` does. An alias shares the
// output of the experiment it resolves to, so each ingest runs once.
func TestEveryExperimentRuns(t *testing.T) {
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
		for _, a := range figureAliases {
			if a.name == e.Name {
				names = append(names, a.alias)
			}
		}
	}
	type result struct {
		out string
		err error
	}
	runs := map[string]result{}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			titles, ok := experimentTitles[name]
			if !ok {
				t.Fatalf("%s claims no table titles", name)
			}
			e, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if testing.Short() && e.Name == "fig9" {
				t.Skip("7-day experiments skipped in -short")
			}
			r, ok := runs[e.Name]
			if !ok {
				var buf bytes.Buffer
				r.err = e.Run(&buf, tinyOptions(t))
				r.out = buf.String()
				runs[e.Name] = r
			}
			if r.err != nil {
				t.Fatalf("%s: %v", e.Name, r.err)
			}
			for _, title := range titles {
				if !strings.Contains(r.out, "== "+title) {
					t.Errorf("%s printed no %q table:\n%s", name, title, r.out)
				}
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig11"); err != nil {
		t.Error(err)
	}
	if e, err := Lookup("fig10"); err != nil || e.Name != "fig9" {
		t.Errorf("Lookup(fig10) = %q, %v; want fig9", e.Name, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestPeriodPartitionsCoverDay(t *testing.T) {
	o := tinyOptions(t)
	parts := periodPartitions(o)
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p.epochs)
	}
	if total != telco.EpochsPerDay*o.Days {
		t.Errorf("period partitions cover %d epochs, want %d", total, telco.EpochsPerDay*o.Days)
	}
	// Night wraps midnight: must include hour 23 and hour 2 epochs.
	night := parts[3]
	sawLate, sawEarly := false, false
	for _, e := range night.epochs {
		switch e.Start().Hour() {
		case 23:
			sawLate = true
		case 2:
			sawEarly = true
		}
	}
	if !sawLate || !sawEarly {
		t.Error("night period does not wrap midnight")
	}
}

func TestWeekdayPartitionsCoverWeek(t *testing.T) {
	o := tinyOptions(t)
	parts := weekdayPartitions(o)
	if len(parts) != 7 {
		t.Fatalf("parts = %d", len(parts))
	}
	for _, p := range parts {
		if len(p.epochs) != telco.EpochsPerDay {
			t.Errorf("%s has %d epochs, want %d", p.name, len(p.epochs), telco.EpochsPerDay)
		}
	}
}

func TestTablePrinting(t *testing.T) {
	tab := &table{title: "X", header: []string{"a", "bb"}}
	tab.addRow("1", "2")
	var buf bytes.Buffer
	tab.fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== X ==") || !strings.Contains(out, "bb") {
		t.Errorf("output: %s", out)
	}
}

func TestMeasureAverages(t *testing.T) {
	n := 0
	d, err := measure(5, func() error { n++; time.Sleep(time.Millisecond); return nil })
	if err != nil || n != 5 {
		t.Fatalf("measure: %v n=%d", err, n)
	}
	if d < time.Millisecond/2 {
		t.Errorf("mean %v too small", d)
	}
}
