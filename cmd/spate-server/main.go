// Command spate-server is the SPATE-UI stand-in (paper §VI-B): an HTTP
// exploration service over a SPATE store with a built-in map-style heatmap
// page (see internal/webui for the API surface).
//
// Usage:
//
//	spate-server -addr :8080 -scale 0.01 -days 1
//	spate-server -addr :8080 -trace /tmp/trace
//	spate-server -addr :8080 -cluster -shards 4 -replicas 2
//	spate-server -addr :8080 -join http://n1:9001,http://n2:9002 -shards 2
//	spate-server -addr :8080 -decay-interval 1h -keep-raw 720h -scrub-interval 6h -compact 24h
//	spate-server -addr :8080 -slow-query 100ms
//	spate-server -addr :8080 -stream
//	spate-server -addr :8080 -cluster -shards 4 -stream
//	spate-server -addr :8080 -rps 50 -max-concurrent 8 -tenants gold:4,bronze:1
//	spate-server -addr :8080 -result-cache-bytes 67108864
//
// Endpoints — one server (internal/webui) over one backend, a single engine
// or, with -cluster / -join, a coordinator; [E] and [C] mark the routes
// only one of them has:
//
//	GET /                         heatmap UI (with a live stats panel)
//	GET /api/cells                static cell inventory
//	GET /api/explore?from=&to=&minx=&miny=&maxx=&maxy=&attr=&profile=1
//	GET /api/template?name=       canned per-cell queries (dropcalls, rssi, ...)
//	GET /api/playback?step=       the window as per-step frames
//	POST /api/append              streaming row ingest (behind -stream)
//	GET /api/sql?q=SELECT...      (also EXPLAIN / EXPLAIN ANALYZE)
//	GET /api/lifecycle            maintenance daemon status + run history
//	POST /api/lifecycle           ?job=decay|scrub|compact or ?action=pause|resume
//	GET /metrics                  Prometheus text exposition
//	GET /api/stats                JSON metrics mirror
//	GET /api/trace                recent request span trees (?id= fetches one)
//	GET /api/slowlog              recent slow queries
//	GET /api/space, /api/tree     [E] storage accounting, the temporal index
//	GET /api/health               [C] per-node probes
//	GET /rpc/...                  [E] cluster node RPC
//	GET /debug/pprof/...          runtime profiles (behind -pprof)
//
// With -cluster the process boots an in-process cluster — shards×replicas
// engine nodes on loopback listeners — ingests through the coordinator and
// serves the cluster UI. With -join it runs the coordinator alone over
// existing nodes (started as plain spate-server instances, whose /rpc/
// surface is always mounted): URLs are grouped into replica sets of
// -replicas in slot order. Exploration degrades gracefully: answers carry
// partial:true plus the missing time-ranges when shards stay unreachable
// past their deadline and retries.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"spate/internal/cluster"
	_ "spate/internal/compress/all"
	"spate/internal/core"
	"spate/internal/decay"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/lifecycle"
	"spate/internal/obs"
	"spate/internal/serving"
	"spate/internal/snapshot"
	"spate/internal/telco"
	"spate/internal/tracedir"
	"spate/internal/webui"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main's body with a normal error return, so deferred cleanup (the
// temp store removal) executes on every exit path — a fatal log inside
// main would skip the defers and leak the store directory.
func run(args []string) int {
	flags := flag.NewFlagSet("spate-server", flag.ExitOnError)
	var (
		addr      = flags.String("addr", ":8080", "listen address")
		trace     = flags.String("trace", "", "trace directory (optional; else synthesized)")
		scale     = flags.Float64("scale", 0.01, "synthesized trace scale")
		days      = flags.Int("days", 1, "synthesized trace length in days")
		withPprof = flags.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		chunkSize = flags.Int("chunk-size", 0,
			"target uncompressed bytes per leaf segment chunk (0 = 256 KiB default)")
		scanWorkers = flags.Int("scan-workers", 0,
			"width of the per-query worker pool for leaf scans (0 = GOMAXPROCS; 1 = a pool of one)")

		decayEvery = flags.Duration("decay-interval", 0,
			"lifecycle: run scheduled decay this often (0 = disabled)")
		scrubEvery = flags.Duration("scrub-interval", 0,
			"lifecycle: run the DFS scrubber + re-replicator this often (0 = disabled)")
		compactEvery = flags.Duration("compact", 0,
			"lifecycle: run segment compaction this often (0 = disabled)")
		keepRaw = flags.Duration("keep-raw", 0,
			"decay horizon: evict full-resolution leaf data older than this (0 = keep forever)")
		slowQuery = flags.Duration("slow-query", obs.DefaultSlowThreshold,
			"slow-query log threshold (0 = disabled)")

		stream = flags.Bool("stream", false,
			"streaming ingest: keep the store open and serve POST /api/append (rows land in a WAL + memtable, queryable before their epoch seals)")
		walDir = flags.String("wal", "",
			"WAL directory for -stream (default: under the store directory)")

		rps = flags.Float64("rps", 0,
			"serving tier: sustained requests/second per tenant and endpoint class (0 = no rate limit)")
		maxConcurrent = flags.Int("max-concurrent", 0,
			"serving tier: concurrent requests per tenant and endpoint class; excess queues FIFO then sheds 503 (0 = no cap)")
		tenants = flags.String("tenants", "",
			"serving tier: comma-separated tenant name[:weight] entries scaling -rps/-max-concurrent per tenant (requests carry X-Spate-Tenant)")
		cacheBytes = flags.Int64("result-cache-bytes", 0,
			"serving tier: result-cache budget in bytes (0 = the engine's own 64 MiB cache); single engine only, not with -cluster or -join")

		clusterMode = flags.Bool("cluster", false, "run an in-process sharded cluster behind the coordinator UI")
		shards      = flags.Int("shards", 4, "cluster: number of time shards")
		replicas    = flags.Int("replicas", 1, "cluster: replica nodes per shard slot")
		split       = flags.Int("spatial-split", 1, "cluster: vertical cell-plane bands per time shard")
		join        = flags.String("join", "", "cluster: comma-separated node base URLs; coordinator-only proxy mode")
	)
	_ = flags.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0
	if *chunkSize < 0 {
		slog.Error("spate-server: -chunk-size must not be negative", "chunk-size", *chunkSize)
		return 1
	}
	// Reject flag combinations that would configure nothing, before any
	// expensive setup.
	if *tenants != "" && *rps <= 0 && *maxConcurrent <= 0 {
		slog.Error("spate-server: -tenants requires -rps or -max-concurrent")
		return 1
	}
	if *cacheBytes > 0 && (*clusterMode || *join != "") {
		slog.Error("spate-server: -result-cache-bytes applies to a single engine; a cluster node's engine caches only its rebuilt leaf summaries, in its own cache")
		return 1
	}
	obs.DefaultSlowLog.SetThreshold(*slowQuery)

	// Bind before any expensive setup: a taken address should fail fast
	// with a non-zero exit, not after minutes of ingestion.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		slog.Error("spate-server: listen", "addr", *addr, "err", err)
		return 1
	}
	defer ln.Close()

	g := gen.New(gen.DefaultConfig(*scale))
	var cellTable *telco.Table
	var cells []gen.Cell
	if *trace != "" {
		cellTable, err = tracedir.ReadCells(*trace)
		if err != nil {
			slog.Error("spate-server: read cells", "err", err)
			return 1
		}
	} else {
		cellTable = g.CellTable()
		cells = g.Cells()
	}

	// forEachSnapshot streams the configured trace in epoch order through a
	// two-step ingest and returns its window. While one snapshot's commit
	// runs, the next is already being read and prepared (see lookAhead).
	forEachSnapshot := func(prepare func(*snapshot.Snapshot) (settle func(commit bool) error, err error)) (telco.TimeRange, error) {
		var window telco.TimeRange
		var read func(i int) (*snapshot.Snapshot, error)
		var n int
		if *trace != "" {
			epochs, err := tracedir.Epochs(*trace)
			if err != nil {
				return window, err
			}
			n = len(epochs)
			read = func(i int) (*snapshot.Snapshot, error) { return tracedir.ReadSnapshot(*trace, epochs[i]) }
			if n > 0 {
				window = telco.NewTimeRange(epochs[0].Start(), epochs[n-1].End())
			}
		} else {
			e0 := telco.EpochOf(g.Config().Start)
			n = *days * telco.EpochsPerDay
			read = func(i int) (*snapshot.Snapshot, error) {
				sn := snapshot.New(e0 + telco.Epoch(i))
				sn.Add(g.CDRTable(sn.Epoch))
				sn.Add(g.NMSTable(sn.Epoch))
				return sn, nil
			}
			window = telco.NewTimeRange(e0.Start(), (e0 + telco.Epoch(n)).Start())
		}
		return window, lookAhead(n, func(i int) (func(bool) error, error) {
			sn, err := read(i)
			if err != nil {
				return nil, err
			}
			return prepare(sn)
		})
	}

	// Lifecycle maintenance (ISSUE 5): scheduled decay, DFS scrub and
	// segment compaction run inside the serving process. The run summaries
	// go through the structured logger so operators see them without
	// scraping /api/lifecycle.
	engOpts := core.Options{
		ChunkSize:   *chunkSize,
		ScanWorkers: *scanWorkers,
		Policy:      decay.Policy{KeepRaw: *keepRaw},
	}
	lcCfg := lifecycle.Config{
		DecayInterval:   *decayEvery,
		ScrubInterval:   *scrubEvery,
		CompactInterval: *compactEvery,
		Logf: func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...))
		},
	}
	lcEnabled := *decayEvery > 0 || *scrubEvery > 0 || *compactEvery > 0
	if lcEnabled {
		slog.Info("spate-server: lifecycle daemon enabled",
			"decay", *decayEvery, "scrub", *scrubEvery, "compact", *compactEvery)
	}

	// Serving tier: the admission controller fronts whichever server mode
	// runs below.
	var admission *serving.Controller
	if *rps > 0 || *maxConcurrent > 0 {
		base := serving.Limits{RPS: *rps, MaxConcurrent: *maxConcurrent}
		perTenant, err := serving.ParseTenants(*tenants, base)
		if err != nil {
			slog.Error("spate-server: -tenants", "err", err)
			return 1
		}
		admission = serving.NewController(serving.Config{Default: base, Tenants: perTenant})
		slog.Info("spate-server: admission control enabled",
			"rps", *rps, "max_concurrent", *maxConcurrent, "tenants", len(perTenant))
	}

	// Each mode builds the backend and hands it to the one UI server; rpc
	// stays nil unless this process is itself a shard node.
	ccfg := cluster.Config{Shards: *shards, Replicas: *replicas, SpatialSplit: *split}
	var ui *webui.Server
	var rpc http.Handler
	switch {
	case *join != "":
		// Coordinator-only proxy: scatter-gather over already-running
		// nodes; no local ingest — the nodes carry the data.
		urls := strings.Split(*join, ",")
		inv, err := core.NewCellInventory(cellTable)
		if err != nil {
			slog.Error("spate-server: cell table", "err", err)
			return 1
		}
		m := cluster.NewShardMap(ccfg, inv.Points())
		want := m.NumSlots() * *replicas
		if len(urls) != want {
			slog.Error("spate-server: -join node count mismatch",
				"want", want, "slots", m.NumSlots(), "replicas", *replicas, "got", len(urls))
			return 1
		}
		nodes := make([][]string, m.NumSlots())
		for i, u := range urls {
			nodes[i / *replicas] = append(nodes[i / *replicas], strings.TrimSpace(u))
		}
		coord, err := cluster.NewCoordinator(ccfg, m, nodes, cellTable)
		if err != nil {
			slog.Error("spate-server: coordinator", "err", err)
			return 1
		}
		for url, perr := range coord.Health(context.Background()) {
			if perr != nil {
				slog.Warn("spate-server: node unhealthy", "url", url, "err", perr)
			}
		}
		slog.Info("spate-server: coordinating", "nodes", len(urls), "shards", *shards)
		ui = webui.NewClusterServer(coord, cells, defaultWindow(g, *days))

	case *clusterMode:
		lopt := cluster.LocalOptions{Engine: engOpts}
		if lcEnabled {
			lopt.Lifecycle = &lcCfg
		}
		if *stream {
			lopt.Streaming = &core.StreamerOptions{}
		}
		local, err := cluster.StartLocal(ccfg, cellTable, lopt)
		if err != nil {
			slog.Error("spate-server: start local cluster", "err", err)
			return 1
		}
		defer local.Close()
		slog.Info("spate-server: ingesting through coordinator",
			"shards", *shards, "replicas", *replicas)
		// The shards prepare and commit behind their RPC; here only the
		// read of the next snapshot overlaps the ingest of this one.
		window, err := forEachSnapshot(func(sn *snapshot.Snapshot) (func(bool) error, error) {
			return func(commit bool) error {
				if !commit {
					return nil // only read so far
				}
				return local.Coordinator.Ingest(context.Background(), sn)
			}, nil
		})
		if err != nil {
			slog.Error("spate-server: ingest", "err", err)
			return 1
		}
		if *stream {
			// Streaming mode keeps the store open: FinishIngest would
			// finalize the engines and refuse further appends.
			slog.Info("spate-server: streaming ingest enabled (POST /api/append)")
		} else if err := local.Coordinator.FinishIngest(context.Background()); err != nil {
			slog.Error("spate-server: finish ingest", "err", err)
			return 1
		}
		slog.Info("spate-server: cluster ready", "nodes", len(local.Nodes),
			"from", window.From.Format(telco.TimeLayout), "to", window.To.Format(telco.TimeLayout))
		ui = webui.NewClusterServer(local.Coordinator, cells, window)

	default:
		dir, err := os.MkdirTemp("", "spate-server-*")
		if err != nil {
			slog.Error("spate-server: temp store", "err", err)
			return 1
		}
		defer os.RemoveAll(dir)
		fs, err := dfs.NewCluster(dir, dfs.Config{})
		if err != nil {
			slog.Error("spate-server: dfs", "err", err)
			return 1
		}
		if *cacheBytes > 0 {
			engOpts.ResultCache = serving.Namespace(serving.NewLRU(*cacheBytes, obs.Default), "engine")
			slog.Info("spate-server: shared result cache enabled", "bytes", *cacheBytes)
		}
		eng, err := core.Open(fs, cellTable, engOpts)
		if err != nil {
			slog.Error("spate-server: open engine", "err", err)
			return 1
		}
		slog.Info("spate-server: ingesting...")
		window, err := forEachSnapshot(func(sn *snapshot.Snapshot) (func(bool) error, error) {
			p, err := eng.Prepare(context.Background(), sn)
			if err != nil {
				return nil, err
			}
			return func(commit bool) error {
				if !commit {
					eng.Abandon(p)
					return nil
				}
				_, err := eng.Commit(p)
				return err
			}, nil
		})
		if err != nil {
			slog.Error("spate-server: ingest", "err", err)
			return 1
		}
		if !*stream {
			// Streaming mode keeps the store open: FinishIngest would
			// finalize the engine and refuse further appends.
			eng.FinishIngest()
		}
		slog.Info("spate-server: ready", "snapshots", eng.Tree().Len(),
			"from", window.From.Format(telco.TimeLayout), "to", window.To.Format(telco.TimeLayout))

		// Mount the node RPC surface alongside the UI so this process can
		// serve as a shard behind a -join coordinator.
		node := cluster.NewNode(eng)
		ui = webui.NewServer(eng, cells, window)
		rpc = node.Handler()
		if *stream {
			wd := *walDir
			if wd == "" {
				wd = filepath.Join(dir, "wal")
			}
			st, err := eng.OpenStreamer(core.StreamerOptions{WALDir: wd})
			if err != nil {
				slog.Error("spate-server: open streamer", "err", err)
				return 1
			}
			defer st.Close()
			node.SetStreamer(st)
			ui.SetStreamer(st)
			slog.Info("spate-server: streaming ingest enabled (POST /api/append)", "wal", wd)
		}
		if lcEnabled {
			lm := lifecycle.New(eng, lcCfg)
			ui.SetLifecycle(lm)
			node.SetLifecycle(lm)
			lm.Start()
			defer lm.Close()
		}
	}
	if admission != nil {
		ui.SetAdmission(admission)
	}

	mux := http.NewServeMux()
	mux.Handle("/", ui.Handler())
	if rpc != nil {
		mux.Handle("/rpc/", rpc)
	}
	if *withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		slog.Info("spate-server: pprof enabled at /debug/pprof/")
	}

	httpSrv := &http.Server{Handler: mux}

	// Graceful shutdown: SIGINT/SIGTERM stop accepting connections, drain
	// in-flight requests for up to 10s, then the deferred temp-store
	// cleanup above runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		slog.Info("spate-server: listening", "addr", ln.Addr().String())
		errc <- httpSrv.Serve(ln)
	}()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			slog.Error("spate-server: serve", "err", err)
			return 1
		}
	case <-ctx.Done():
		slog.Info("spate-server: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			slog.Error("spate-server: shutdown", "err", err)
			return 1
		}
	}
	return 0
}

// lookAhead runs a two-step job over items 0..n-1 with a look-ahead of one:
// prepare(i+1) runs while item i settles, and items settle strictly in order
// on the calling goroutine. At most one prepared item waits at any time.
// prepare returns the item's second step, settle: settle(true) commits it,
// settle(false) gives it up. The first error, from either step, ends the
// run: no further prepare starts, and the one item that may have been
// prepared ahead is given up before lookAhead returns.
func lookAhead(n int, prepare func(i int) (settle func(commit bool) error, err error)) error {
	type prepared struct {
		settle func(commit bool) error
		err    error
	}
	ready := make(chan prepared) // unbuffered: the sender holds the one item ahead
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(ready)
		for i := 0; i < n; i++ {
			settle, err := prepare(i)
			select {
			case ready <- prepared{settle, err}:
			case <-stop:
				if err == nil {
					_ = settle(false)
				}
				return
			}
			if err != nil {
				return
			}
		}
	}()
	for p := range ready {
		err := p.err
		if err == nil {
			err = p.settle(true)
		}
		if err != nil {
			// Nothing receives from ready any more, so the preparer's next
			// select can only see stop: it starts no further item.
			close(stop)
			<-done
			return err
		}
	}
	return nil
}

// defaultWindow is the synthesized trace span — the UI default when the
// coordinator itself holds no data to derive one from.
func defaultWindow(g *gen.Generator, days int) telco.TimeRange {
	e0 := telco.EpochOf(g.Config().Start)
	n := days * telco.EpochsPerDay
	return telco.NewTimeRange(e0.Start(), (e0 + telco.Epoch(n)).Start())
}
