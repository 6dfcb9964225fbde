package bench

import (
	"fmt"
	"io"
	"time"

	"spate/internal/telco"
)

// fig7And8ByPeriod reproduces Figures 7 and 8 from one ingest of the
// Morning/Afternoon/Evening/Night datasets: ingestion time per snapshot
// and total disk space for RAW, SHAHED and SPATE. The paper's shape: SPATE
// ingests slowest but within ~1.25x and stores ~an order of magnitude
// less, and load variation across periods barely moves either.
func fig7And8ByPeriod(w io.Writer, o Options) error {
	return ingestSeries(w, o,
		"Figure 7 — Ingestion time per snapshot, by day period",
		"Figure 8 — Disk space for the dataset, by day period",
		periodPartitions(o))
}

// fig9And10ByWeekday reproduces Figures 9 and 10 (ingestion time and
// disk space by weekday) from one ingest of the seven weekday datasets.
func fig9And10ByWeekday(w io.Writer, o Options) error {
	return ingestSeries(w, o,
		"Figure 9 — Ingestion time per snapshot, by day of week",
		"Figure 10 — Disk space for the dataset, by day of week",
		weekdayPartitions(o))
}

type partition struct {
	name   string
	epochs []telco.Epoch
}

func periodPartitions(o Options) []partition {
	o = o.withDefaults()
	cfg := o.genConfig()
	all := traceEpochs(cfg, o.Days)
	var out []partition
	for _, p := range dayPeriods {
		out = append(out, partition{p.name, filterByPeriod(all, p)})
	}
	return out
}

func weekdayPartitions(o Options) []partition {
	o = o.withDefaults()
	cfg := o.genConfig()
	days := o.Days
	if days < 7 {
		days = 7 // weekday figures need the full week
	}
	all := traceEpochs(cfg, days)
	var out []partition
	for _, wd := range []time.Weekday{
		time.Monday, time.Tuesday, time.Wednesday, time.Thursday,
		time.Friday, time.Saturday, time.Sunday,
	} {
		out = append(out, partition{wd.String()[:3], filterByWeekday(all, wd)})
	}
	return out
}

// ingestSeries ingests each partition into fresh frameworks and prints
// both series that one ingest measures: ingestion time per snapshot
// (Fig. 7/9) and disk space (Fig. 8/10).
func ingestSeries(w io.Writer, o Options, timeTitle, spaceTitle string, parts []partition) error {
	o = o.withDefaults()
	tTime := &table{title: timeTitle,
		header: []string{"dataset", "snapshots", "RAW", "SHAHED", "SPATE", "SPATE/RAW"}}
	tSpace := &table{title: spaceTitle,
		header: []string{"dataset", "RAW", "SHAHED", "SPATE data", "SPATE total", "RAW/SPATEdata"}}
	for _, p := range parts {
		tb, err := newTestbed(o, p.epochs)
		if err != nil {
			return err
		}
		rawT := tb.avgIngest["RAW"]
		shT := tb.avgIngest["SHAHED"]
		spT := tb.avgIngest["SPATE"]
		ratio := 0.0
		if rawT > 0 {
			ratio = float64(spT) / float64(rawT)
		}
		tTime.addRow(p.name, fmt.Sprint(len(p.epochs)),
			fmtDur(rawT), fmtDur(shT), fmtDur(spT), fmt.Sprintf("%.2fx", ratio))

		var totals [3]int64
		var spateData int64
		for i, f := range tb.fws {
			d, idx := f.Space()
			totals[i] = d + idx
			if f.Name() == "SPATE" {
				spateData = d
			}
		}
		gap := 0.0
		if spateData > 0 {
			gap = float64(totals[0]) / float64(spateData)
		}
		tSpace.addRow(p.name, fmtMB(totals[0]), fmtMB(totals[1]),
			fmtMB(spateData), fmtMB(totals[2]), fmt.Sprintf("%.1fx", gap))
		tb.close()
	}
	tTime.fprint(w)
	fmt.Fprintln(w, "\npaper shape: SPATE has the slowest ingestion but stays within")
	fmt.Fprintln(w, "~1.25x of RAW, and load variation barely moves per-snapshot time.")
	tSpace.fprint(w)
	fmt.Fprintln(w, "\npaper shape: SPATE needs ~an order of magnitude less disk space,")
	fmt.Fprintln(w, "steady across load variation.")
	return nil
}

// spaceTotals reproduces the §VIII-C storage totals across all eight
// tasks: "SPATE requires the least storage space, i.e., 0.49GB vs. 5.37GB
// and 5.32GB required by SHAHED and RAW".
func spaceTotals(w io.Writer, o Options) error {
	o = o.withDefaults()
	tb, err := newTestbed(o, traceEpochs(o.genConfig(), o.Days))
	if err != nil {
		return err
	}
	defer tb.close()
	t := &table{title: "§VIII-C — Storage totals for the whole trace",
		header: []string{"framework", "data", "index", "total", "paper"}}
	paper := map[string]string{"RAW": "5.32GB", "SHAHED": "5.37GB", "SPATE": "0.49GB"}
	for _, f := range tb.fws {
		d, idx := f.Space()
		t.addRow(f.Name(), fmtMB(d), fmtMB(idx), fmtMB(d+idx), paper[f.Name()])
	}
	t.fprint(w)
	return nil
}
