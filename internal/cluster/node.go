package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spate/internal/core"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/obs"
	"spate/internal/scanspec"
	"spate/internal/serving"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// Node wraps one core.Engine shard behind the cluster RPC surface. It owns
// no distribution logic: routing, retries and merging are all
// coordinator-side, so a node is just an engine with a wire format.
type Node struct {
	eng *core.Engine
	mux *http.ServeMux

	// ingestMu serializes ingest RPCs — the engine admits one ingester at
	// a time and coordinator retries must observe a settled LastEpoch.
	ingestMu sync.Mutex

	// lc holds the node's optional *lifecycle.Manager (SetLifecycle);
	// atomic so RPC handlers read it without a lock.
	lc atomic.Value

	// streamer holds the node's optional *core.Streamer (SetStreamer);
	// atomic so /rpc/append reads it without a lock.
	streamer atomic.Value

	// Fault injection for tests: exploreDelay stalls /rpc/explore
	// (nanoseconds), failNext fails that many explorations with a 500.
	exploreDelay atomic.Int64
	failNext     atomic.Int64

	// tenants bounds the tenant label of shard request metrics: the node
	// doesn't know the coordinator's tenant configuration, so the first
	// 32 distinct names keep their identity and the rest collapse.
	tenants *serving.LabelSet
}

// NewNode serves eng over the cluster RPC surface.
func NewNode(eng *core.Engine) *Node {
	n := &Node{eng: eng, mux: http.NewServeMux(), tenants: serving.NewLabelSet(32)}
	n.mux.HandleFunc("/rpc/ingest", n.handleIngest)
	n.mux.HandleFunc("/rpc/append", n.handleAppend)
	n.mux.HandleFunc("/rpc/explore", n.handleExplore)
	n.mux.HandleFunc("/rpc/finish", n.handleFinish)
	n.mux.HandleFunc("/rpc/health", n.handleHealth)
	n.mux.HandleFunc("/rpc/lifecycle", n.handleLifecycle)
	return n
}

// Engine exposes the wrapped shard engine.
func (n *Node) Engine() *core.Engine { return n.eng }

// Handler returns the node's RPC handler, mountable under any server.
func (n *Node) Handler() http.Handler { return n.mux }

// SetExploreDelay stalls every subsequent exploration by d (honoring the
// request context) — the test hook that forces a shard past its deadline.
func (n *Node) SetExploreDelay(d time.Duration) { n.exploreDelay.Store(int64(d)) }

// FailNext makes the next k explorations fail with a 500 — the test hook
// for retry and hedge failover paths.
func (n *Node) FailNext(k int) { n.failNext.Store(int64(k)) }

// SetStreamer attaches the node's streaming ingest path; /rpc/append
// serves 503 until one is set.
func (n *Node) SetStreamer(s *core.Streamer) { n.streamer.Store(s) }

// Streamer returns the attached streamer, nil when the node is
// batch-only.
func (n *Node) Streamer() *core.Streamer {
	s, _ := n.streamer.Load().(*core.Streamer)
	return s
}

// liveRows is the node's unsealed memtable row count.
func (n *Node) liveRows() int {
	if s := n.Streamer(); s != nil {
		return int(s.Memtable().Rows())
	}
	return 0
}

// countTenant accounts one shard RPC to the tenant the coordinator
// propagated (the X-Spate-Tenant header), so per-shard load stays
// attributable end to end. The label set bounds cardinality against
// hostile or misconfigured coordinators.
func (n *Node) countTenant(r *http.Request, op string) {
	tenant := n.tenants.Label(serving.TenantFromHeader(r.Header))
	n.eng.Obs().Counter("spate_serving_shard_requests_total",
		"Shard RPCs served, by originating tenant and operation.",
		"tenant", tenant, "op", op).Inc()
}

// handleAppend serves the streaming write path: rows append through the
// node's Streamer (WAL + memtable) and are explorable when the response
// returns. Backpressure maps to 429 with a Retry-After hint; rows of
// already-sealed epochs and finalized stores map to 409 — both typed so
// the coordinator and clients can branch without string matching.
func (n *Node) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rpcError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	n.countTenant(r, "append")
	st := n.Streamer()
	if st == nil {
		rpcError(w, http.StatusServiceUnavailable, fmt.Errorf("cluster: node has no streamer (start with streaming enabled)"))
		return
	}
	var req appendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rpcError(w, http.StatusBadRequest, err)
		return
	}
	recs, err := telco.DecodeLines(req.Table, req.Rows)
	if err != nil {
		rpcError(w, http.StatusBadRequest, err)
		return
	}
	if err := st.AppendAndSeal(r.Context(), req.Table, recs, req.Seal); err != nil {
		switch {
		case errors.Is(err, core.ErrBackpressure):
			serving.WriteRetryAfter(w.Header(), serving.RetryAfterFromError(err, time.Second))
			rpcError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, core.ErrStaleEpoch), errors.Is(err, core.ErrFinalized):
			rpcError(w, http.StatusConflict, err)
		default:
			rpcError(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, appendResponse{Rows: len(recs)})
}

func (n *Node) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rpcError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req ingestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rpcError(w, http.StatusBadRequest, err)
		return
	}
	n.ingestMu.Lock()
	defer n.ingestMu.Unlock()
	// Idempotent replay: the engine rejects out-of-order epochs, and a
	// coordinator only re-sends an epoch after a lost response, so an epoch
	// at or before the last ingested one is a duplicate, not an error.
	if last, ok := n.eng.LastEpoch(); ok && telco.Epoch(req.Epoch) <= last {
		writeJSON(w, ingestResponse{Duplicate: true})
		return
	}
	snap := snapshot.New(telco.Epoch(req.Epoch))
	for name, data := range req.Tables {
		t, err := snapshot.DecodeTable(name, data)
		if err != nil {
			rpcError(w, http.StatusBadRequest, err)
			return
		}
		snap.Add(t)
	}
	rep, err := n.eng.IngestContext(r.Context(), snap)
	if err != nil {
		rpcError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, ingestResponse{Rows: rep.Rows})
}

func (n *Node) handleExplore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rpcError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	n.countTenant(r, "explore")
	if d := time.Duration(n.exploreDelay.Load()); d > 0 {
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			rpcError(w, http.StatusServiceUnavailable, r.Context().Err())
			return
		}
	}
	if k := n.failNext.Load(); k > 0 && n.failNext.CompareAndSwap(k, k-1) {
		rpcError(w, http.StatusInternalServerError, fmt.Errorf("cluster: injected fault"))
		return
	}
	var req exploreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rpcError(w, http.StatusBadRequest, err)
		return
	}
	// Every mode that carries a spec evaluates it: one the coordinator
	// would have refused is refused here too, not answered as no rows.
	if err := req.Spec.Validate(); err != nil {
		rpcError(w, http.StatusBadRequest, err)
		return
	}
	have, err := readHave(req.Have)
	if err != nil {
		rpcError(w, http.StatusBadRequest, err)
		return
	}
	// Root a shard-local span continuing the coordinator's trace (when the
	// request carries one) and accrue the shard-local cost profile; both
	// ride back on the response for coordinator-side stitching.
	ctx := obs.ContextWithTraceHeader(r.Context(), r.Header)
	ctx, span := n.eng.Tracer().StartSpan(ctx, "rpc_explore")
	defer span.End()
	ctx, prof := core.ContextWithProfile(ctx)

	resp := exploreResponse{Leaves: n.eng.Snapshots(), Live: n.liveRows()}
	if resp.Leaves == 0 && resp.Live == 0 {
		// An empty shard legitimately owns no data in any window; the
		// coordinator decides whether the cluster as a whole is empty.
		span.SetAttr("empty", "true")
		writeExploreFrame(w, &resp, frameSections(nil, nil, nil, nil))
		return
	}
	fail := func(err error) {
		span.SetError(err)
		rpcError(w, http.StatusInternalServerError, err)
	}
	// answer lays out the frame's sections inside the span — the bytes of
	// a part the request's have list names left out — then ships them with
	// the shard-local profile and span subtree.
	var parts []*highlights.Summary
	var tables map[string]*telco.Table
	var partials []scanspec.Partial
	answer := func(attr string, v int) {
		body := frameSections(parts, have, tables, partials)
		resp.Profile = prof
		if span != nil {
			span.SetAttr(attr, strconv.Itoa(v))
			span.End() // fix the duration before rendering
			j := span.JSON()
			resp.Trace = &j
		}
		writeExploreFrame(w, &resp, body)
	}
	win := telco.TimeRange{
		From: time.Unix(req.FromUnix, 0).UTC(),
		To:   time.Unix(req.ToUnix, 0).UTC(),
	}
	if req.AggTable != "" {
		// Aggregate mode: fold the spec shard-side and ship partials — no
		// summary parts, no rows.
		var err error
		if partials, err = n.eng.AggregatePartials(ctx, win, req.AggTable, req.Spec); err != nil {
			fail(err)
			return
		}
		answer("partials", len(partials))
		return
	}
	// A row request that carries a spec and no box is the SQL scan path
	// (Coordinator.ScanRows): it reads rows and nothing else, so no summary
	// part is rebuilt, encoded or shipped for it.
	rowsOnly := req.Rows && req.Spec != nil && !req.Boxed
	if !rowsOnly {
		var diag core.PartsDiag
		var err error
		if parts, diag, err = n.eng.ExploreParts(ctx, win); err != nil {
			fail(err)
			return
		}
		resp.Scanned, resp.Decayed = diag.ScannedLeaves, diag.DecayedLeaves
	}
	if req.Rows {
		var box geo.Rect
		if req.Boxed {
			box = geo.NewRect(req.MinX, req.MinY, req.MaxX, req.MaxY)
		}
		// The rows travel in the layout the scan hands out: narrow under a
		// spec naming columns, the stored tables' own otherwise.
		decayed := prof.LeavesDecayed
		tables = make(map[string]*telco.Table)
		err := n.eng.ScanTablesSpec(ctx, win, box, req.Tables, req.Spec, func(name string, t *telco.Table) error {
			if dst, ok := tables[name]; ok {
				dst.Rows = append(dst.Rows, t.Rows...)
			} else {
				tables[name] = t
			}
			return nil
		})
		if !rowsOnly {
			// ExploreParts counted the decayed leaves the row scan met too,
			// as an engine's exploration counts them once.
			prof.LeavesDecayed = decayed
		}
		if err != nil {
			fail(err)
			return
		}
	}
	answer("leaves_scanned", resp.Scanned)
}

func (n *Node) handleFinish(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rpcError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	n.ingestMu.Lock()
	n.eng.FinishIngest()
	n.ingestMu.Unlock()
	writeJSON(w, struct{}{})
}

func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{OK: true, Snapshots: n.eng.Snapshots(), LastEpoch: -1}
	if last, ok := n.eng.LastEpoch(); ok {
		resp.LastEpoch = int64(last)
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func rpcError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}
