package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"spate/benchmarks/harness"
	"spate/internal/cluster"
	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/obs"
	"spate/internal/serving"
	"spate/internal/snapshot"
	"spate/internal/sqlengine"
	"spate/internal/tasks"
	"spate/internal/telco"
	"spate/internal/tracedir"
	"spate/internal/webui"
)

// stack is the program under test assembled in-process from the public
// constructors, the way cmd/spate-server assembles it for the workload's
// flags, with the benchmark's timing decorators at the seams that are
// interfaces or HTTP handlers.
type stack struct {
	spec      harness.Spec
	rec       *recorder
	traceDir  string
	work      string
	cellTable *telco.Table
	epochs    []telco.Epoch // the whole trace
	window    telco.TimeRange

	eng      *core.Engine // the engine; on a cluster, the first node's
	streamer *core.Streamer
	local    *cluster.Local
	lru      *serving.LRU

	handler http.Handler      // the full HTTP surface, spans at each layer
	sql     *sqlengine.Engine // direct SQL over the decorated catalog
	fwRows  atomic.Int64      // rows storage handed to the SQL engine

	ingestS float64 // wall time of the ingest
	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// forEachSnapshotFrom reads n epochs of the trace (0 = all that follow),
// starting at the start-th, in order.
func (s *stack) forEachSnapshotFrom(start, n int, fn func(*snapshot.Snapshot) error) error {
	if start > len(s.epochs) {
		start = len(s.epochs)
	}
	epochs := s.epochs[start:]
	if n > 0 && n < len(epochs) {
		epochs = epochs[:n]
	}
	for _, e := range epochs {
		sn, err := tracedir.ReadSnapshot(s.traceDir, e)
		if err != nil {
			return err
		}
		if err := fn(sn); err != nil {
			return err
		}
	}
	return nil
}

// buildStack ingests the trace and wires the layers.
func buildStack(spec harness.Spec, rec *recorder, traceDir, work string) (*stack, error) {
	s := &stack{spec: spec, rec: rec, traceDir: traceDir, work: work}
	var err error
	if s.cellTable, err = tracedir.ReadCells(traceDir); err != nil {
		return nil, err
	}
	if s.epochs, err = tracedir.Epochs(traceDir); err != nil {
		return nil, err
	}
	if len(s.epochs) == 0 {
		return nil, fmt.Errorf("trace %s has no epochs", traceDir)
	}
	s.window = telco.NewTimeRange(s.epochs[0].Start(), s.epochs[len(s.epochs)-1].End())

	// The workload's spate-server flags decide the shape of the stack.
	number := func(flag string) float64 {
		v, _ := spec.Flag(flag)
		f, _ := strconv.ParseFloat(v, 64)
		return f
	}
	_, clustered := spec.Flag("-cluster")
	_, streaming := spec.Flag("-stream")
	limits := serving.Limits{RPS: number("-rps"), MaxConcurrent: int(number("-max-concurrent"))}
	var engOpts core.Options
	if n := int64(number("-result-cache-bytes")); n > 0 {
		s.lru = serving.NewLRU(n, obs.Default)
	}
	var framework tasks.Framework
	var inner http.Handler
	t0 := time.Now()
	if clustered {
		lopt := cluster.LocalOptions{Engine: engOpts, Dir: filepath.Join(work, "cluster")}
		ccfg := cluster.Config{Shards: int(number("-shards")), Replicas: int(number("-replicas")), SpatialSplit: 1}
		s.local, err = cluster.StartLocal(ccfg, s.cellTable, lopt)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, func() { s.local.Close() })
		coord := s.local.Coordinator
		err = s.forEachSnapshotFrom(0, 0, func(sn *snapshot.Snapshot) error {
			return coord.Ingest(context.Background(), sn)
		})
		if err != nil {
			return nil, err
		}
		if err := coord.FinishIngest(context.Background()); err != nil {
			return nil, err
		}
		s.eng = s.local.Node(0, 0).Engine()
		framework = tasks.Cluster{C: coord}
		inner = webui.NewClusterServer(coord, nil, s.window).Handler()
	} else {
		fs, err := dfs.NewCluster(filepath.Join(work, "store"), dfs.Config{})
		if err != nil {
			return nil, err
		}
		if s.lru != nil {
			engOpts.ResultCache = timedCache{rec: rec, inner: serving.Namespace(s.lru, "engine")}
		}
		if s.eng, err = core.Open(fs, s.cellTable, engOpts); err != nil {
			return nil, err
		}
		err = s.forEachSnapshotFrom(0, spec.BaseEpochs, func(sn *snapshot.Snapshot) error {
			_, err := s.eng.Ingest(sn)
			return err
		})
		if err != nil {
			return nil, err
		}
		ui := webui.NewServer(s.eng, nil, s.window)
		if streaming {
			// The store stays open for appends.
			s.streamer, err = s.eng.OpenStreamer(core.StreamerOptions{WALDir: filepath.Join(work, "store", "wal")})
			if err != nil {
				return nil, err
			}
			s.closers = append(s.closers, func() { s.streamer.Close() })
			ui.SetStreamer(s.streamer)
		} else {
			s.eng.FinishIngest()
		}
		framework = tasks.Spate{E: s.eng}
		inner = ui.Handler()
	}
	s.ingestS = time.Since(t0).Seconds()

	// HTTP: serving ⊃ webui. The admission tier goes outside the handler's
	// own metrics middleware here (spate-server puts it inside), so that
	// a span either side of it isolates its self time.
	h := spanHandler(rec, "webui", inner)
	if limits.RPS > 0 || limits.MaxConcurrent > 0 {
		ctl := serving.NewController(serving.Config{Default: limits})
		h = spanHandler(rec, "serving", ctl.Middleware(h))
	}
	s.handler = h

	// Direct SQL: sqlengine ⊃ catalog ⊃ framework scan.
	fw := timedFramework{rec: rec, inner: framework, rows: &s.fwRows}
	s.sql = sqlengine.NewEngine(timedCatalog{rec: rec, inner: tasks.Catalog(fw)})
	return s, nil
}

// coreQuery turns an explore op into the engine's query.
func coreQuery(op harness.Op) core.Query {
	q := core.Query{Window: telco.NewTimeRange(op.From, op.To)}
	if op.HasBox {
		q.Box = geoRect(op.Box)
	}
	return q
}
