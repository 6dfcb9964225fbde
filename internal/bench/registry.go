package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one runnable table/figure reproduction.
type Experiment struct {
	Name string
	Desc string
	Run  func(io.Writer, Options) error
}

// Experiments lists every experiment in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig4", "Figure 4: per-attribute entropy of CDR/NMS/CELL", fig4Entropy},
		{"table1", "Table I: compression ratio and (de)compression times", table1Compression},
		{"fig7", "Figures 7 and 8: ingestion time per snapshot and disk space, by day period", fig7And8ByPeriod},
		{"fig9", "Figures 9 and 10: ingestion time per snapshot and disk space, by weekday", fig9And10ByWeekday},
		{"fig11", "Figure 11: response time of tasks T1-T5", fig11ResponseTimes},
		{"fig12", "Figure 12: response time of tasks T6-T8", fig12HeavyTasks},
		{"space", "§VIII-C: storage totals across frameworks", spaceTotals},
		{"window", "Window sweep: response time vs temporal window length", windowSweep},
		{"ablate-codec", "Ablation: storage codec choice", ablateCodec},
		{"ablate-decay", "Ablation: decay fungi and horizons", ablateDecay},
		{"ablate-leafindex", "Ablation: per-leaf spatial pruning", ablateLeafIndex},
		{"ablate-theta", "Ablation: highlight threshold sweep", ablateTheta},
	}
}

// figureAliases maps a figure printed by another experiment's ingest to
// that experiment, so `-exp fig8` still reproduces Figure 8. Aliases are
// not listed in Experiments: `-exp all` runs each ingest once.
var figureAliases = []struct{ alias, name string }{
	{"fig8", "fig7"},
	{"fig10", "fig9"},
}

// Lookup finds an experiment by name or figure alias.
func Lookup(name string) (Experiment, error) {
	for _, a := range figureAliases {
		if a.alias == name {
			name = a.name
		}
	}
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	names := make([]string, 0)
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	for _, a := range figureAliases {
		names = append(names, a.alias)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", name, names)
}
