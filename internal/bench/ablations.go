package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"spate/internal/compress"
	"spate/internal/core"
	"spate/internal/decay"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/index"
	"spate/internal/snapshot"
	"spate/internal/tasks"
	"spate/internal/telco"
)

// buildSpate ingests the epochs into a standalone SPATE engine.
func buildSpate(o Options, epochs []telco.Epoch, opts core.Options) (*core.Engine, *gen.Generator, func(), time.Duration, error) {
	o = o.withDefaults()
	g := gen.New(o.genConfig())
	dirSeq++
	dir := filepath.Join(o.Dir, fmt.Sprintf("spate-bench-%d-%d", os.Getpid(), dirSeq))
	cleanup := func() { os.RemoveAll(dir) }
	fs, err := dfs.NewCluster(dir, benchClusterConfig())
	if err != nil {
		return nil, nil, cleanup, 0, err
	}
	eng, err := core.Open(fs, g.CellTable(), opts)
	if err != nil {
		return nil, nil, cleanup, 0, err
	}
	var total time.Duration
	for _, e := range epochs {
		sn := snapshot.New(e)
		sn.Add(g.CDRTable(e))
		sn.Add(g.NMSTable(e))
		rep, err := eng.Ingest(sn)
		if err != nil {
			return nil, nil, cleanup, 0, err
		}
		total += rep.Total
	}
	eng.FinishIngest()
	if len(epochs) > 0 {
		total /= time.Duration(len(epochs))
	}
	return eng, g, cleanup, total, nil
}

// ablateCodec measures the storage-layer codec choice (§IV-C): per codec,
// ingestion time, stored bytes and a range-query (T2-style) response time.
func ablateCodec(w io.Writer, o Options) error {
	o = o.withDefaults()
	epochs := traceEpochs(o.genConfig(), 1)
	t := &table{title: "Ablation — storage codec (1 day of trace)",
		header: []string{"codec", "avg ingest", "data", "T2 response"}}
	for _, name := range compress.Names() {
		c, err := compress.Lookup(name)
		if err != nil {
			return err
		}
		eng, _, cleanup, avg, err := buildSpate(o, epochs, core.Options{Codec: c})
		if err != nil {
			cleanup()
			return err
		}
		f := tasks.Spate{E: eng}
		wRange := telco.NewTimeRange(epochs[0].Start(), epochs[len(epochs)-1].End())
		d, err := measure(o.Iterations, func() error {
			_, err := tasks.T2Range(f, wRange)
			return err
		})
		if err != nil {
			cleanup()
			return err
		}
		data, _ := f.Space()
		t.addRow(name, fmtDur(avg), fmtMB(data), fmtDur(d))
		cleanup()
	}
	t.fprint(w)
	return nil
}

// ablateDecay compares no decay against the two fungi at a short horizon
// (§V-C): retained bytes, index nodes and whether aggregate exploration of
// the decayed window still answers.
func ablateDecay(w io.Writer, o Options) error {
	o = o.withDefaults()
	days := o.Days
	if days < 2 {
		days = 2
	}
	epochs := traceEpochs(o.genConfig(), days)
	t := &table{title: "Ablation — decay policy (trace of " + fmt.Sprint(days) + " days, KeepRaw=12h)",
		header: []string{"fungus", "data retained", "leaves", "decayed", "old-window rows"}}
	policies := []struct {
		name   string
		fungus decay.Fungus
		policy decay.Policy
	}{
		{"none (retain all)", decay.EvictOldestIndividuals{}, decay.Policy{}},
		{"evict-oldest-individuals", decay.EvictOldestIndividuals{}, decay.Policy{KeepRaw: 12 * time.Hour}},
		{"evict-grouped-individuals", decay.EvictGroupedIndividuals{}, decay.Policy{KeepRaw: 12 * time.Hour}},
		{"oldest + collapse epochs", decay.EvictOldestIndividuals{},
			decay.Policy{KeepRaw: 12 * time.Hour, KeepEpochNodes: 24 * time.Hour}},
	}
	for _, p := range policies {
		eng, _, cleanup, _, err := buildSpate(o, epochs, core.Options{Fungus: p.fungus, Policy: p.policy})
		if err != nil {
			cleanup()
			return err
		}
		st := eng.Tree().Stats()
		// Aggregates over the first (decayed) morning must still answer.
		oldW := telco.NewTimeRange(epochs[0].Start(), epochs[0].Start().Add(6*time.Hour))
		res, err := eng.Explore(core.Query{Window: oldW})
		if err != nil {
			cleanup()
			return err
		}
		t.addRow(p.name, fmtMB(st.DataBytes), fmt.Sprint(st.Leaves),
			fmt.Sprint(st.DecayedLeaves), fmt.Sprint(res.Summary.Rows))
		cleanup()
	}
	t.fprint(w)
	fmt.Fprintln(w, "\ndecay frees raw storage while day/month summaries keep answering")
	fmt.Fprintln(w, "aggregate exploration over the decayed window (progressive loss of detail).")
	return nil
}

// ablateLeafIndex measures the per-leaf spatial pruning discussed in §V-A
// where the engine does it: at chunk grain, each segment chunk's cell
// sketch letting an exact-row box query skip the chunk before inflating
// it. A sealed day keeps no leaf summary a per-leaf index could consult,
// so the sketches are the spatial pruning below the covering node. Each
// box gets its own store; every exploration misses the result cache, and
// the counts are the first, cold run's.
func ablateLeafIndex(w io.Writer, o Options) error {
	o = o.withDefaults()
	epochs := traceEpochs(o.genConfig(), 1)
	t := &table{title: "Ablation — per-leaf spatial pruning (§V-A) by chunk cell sketches, exact-row CDR box query over a day",
		header: []string{"box", "cells", "response", "leaves", "chunks scanned", "pruned by sketch", "inflated"}}
	wRange := telco.NewTimeRange(epochs[0].Start(), epochs[len(epochs)-1].End())
	for _, sparse := range []bool{true, false} {
		eng, g, cleanup, _, err := buildSpate(o, epochs, core.Options{})
		if err != nil {
			cleanup()
			return err
		}
		name, box := "everywhere", geo.Rect{}
		if sparse {
			c0 := g.Cells()[0]
			name, box = "first cell ±2", geo.NewRect(c0.Pt.X-2, c0.Pt.Y-2, c0.Pt.X+2, c0.Pt.Y+2)
		}
		cells := 0
		for _, c := range g.Cells() {
			if !sparse || box.Contains(c.Pt) {
				cells++
			}
		}
		q := core.Query{Window: wRange, Box: box, ExactRows: true, Tables: []string{"CDR"}}
		var prof *core.Profile
		d, err := measure(o.Iterations, func() error {
			eng.ClearCache()
			res, err := eng.Explore(q)
			if err == nil && prof == nil {
				prof = &res.Profile
			}
			return err
		})
		cleanup()
		if err != nil {
			return err
		}
		t.addRow(name, fmt.Sprint(cells), fmtDur(d), fmt.Sprint(prof.LeavesScanned),
			fmt.Sprint(prof.ChunksScanned), fmt.Sprint(prof.ChunksPrunedBloom), fmtMB(prof.InflatedBytes))
	}
	t.fprint(w)
	fmt.Fprintln(w, "\nthe paper argues a per-leaf spatial index yields only modest gains for")
	fmt.Fprintln(w, "30-minute snapshots; the chunk sketches skip the chunks a sparse box")
	fmt.Fprintln(w, "leaves out without one.")
	return nil
}

// ablateTheta sweeps the highlight threshold θ (§V-B): volume of reported
// highlights per level.
func ablateTheta(w io.Writer, o Options) error {
	o = o.withDefaults()
	epochs := traceEpochs(o.genConfig(), 1)
	t := &table{title: "Ablation — highlight threshold θ",
		header: []string{"theta", "highlights (day window)", "categorical", "peaks"}}
	for _, theta := range []float64{0.001, 0.01, 0.05, 0.2} {
		eng, _, cleanup, _, err := buildSpate(o, epochs, core.Options{
			Theta: map[index.Level]float64{
				index.LevelEpoch: theta, index.LevelDay: theta,
				index.LevelMonth: theta, index.LevelYear: theta, index.LevelRoot: theta,
			},
		})
		if err != nil {
			cleanup()
			return err
		}
		wRange := telco.NewTimeRange(epochs[0].Start(), epochs[len(epochs)-1].End())
		res, err := eng.Explore(core.Query{Window: wRange})
		if err != nil {
			cleanup()
			return err
		}
		cat, peak := 0, 0
		for _, h := range res.Highlights {
			if h.Kind == highlights.Categorical {
				cat++
			} else {
				peak++
			}
		}
		t.addRow(fmt.Sprintf("%.3f", theta), fmt.Sprint(len(res.Highlights)),
			fmt.Sprint(cat), fmt.Sprint(peak))
		cleanup()
	}
	t.fprint(w)
	return nil
}

// ablateDictionary measures the zstd trained-dictionary direction (§IX-B
// differential compression): stored bytes with and without training.
func ablateDictionary(w io.Writer, o Options) error {
	o = o.withDefaults()
	epochs := traceEpochs(o.genConfig(), 1)
	zc, err := compress.Lookup("zstd")
	if err != nil {
		return err
	}
	t := &table{title: "Ablation — zstd dictionary training (§IX-B direction)",
		header: []string{"mode", "data", "avg ingest"}}
	for _, train := range []bool{false, true} {
		eng, _, cleanup, avg, err := buildSpate(o, epochs, core.Options{
			Codec: zc, TrainDictionary: train,
		})
		if err != nil {
			cleanup()
			return err
		}
		f := tasks.Spate{E: eng}
		data, _ := f.Space()
		mode := "zstd"
		if train {
			mode = "zstd + trained dictionary"
		}
		t.addRow(mode, fmtMB(data), fmtDur(avg))
		cleanup()
	}
	t.fprint(w)
	return nil
}
