// The seam under the SPATE-UI: a backend is whatever answers Q(a, b, w)
// for the one Server — a single engine, or a coordinator scattering over
// shard nodes.

package webui

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"spate/internal/cluster"
	"spate/internal/core"
	"spate/internal/index"
	"spate/internal/lifecycle"
	"spate/internal/obs"
	"spate/internal/serving"
	"spate/internal/tasks"
	"spate/internal/telco"
)

// backend is what the Server's handlers need from the storage below them.
// There are exactly two: engineBackend and coordBackend.
type backend interface {
	// explore evaluates Q(a, b, w) under ctx, so an abandoned request
	// stops and the evaluation's spans nest under the request's.
	explore(ctx context.Context, q core.Query) (exploration, error)
	// appendRows feeds the request's rows through the streaming write path
	// and, when it asks for a seal, then seals every buffered epoch; it
	// returns the number of rows applied.
	appendRows(ctx context.Context, req *AppendJSON) (int, error)
	// lifecycle reports ("status") or drives ("pause", "resume", "trigger"
	// with a job name) the maintenance daemon(s) and returns the JSON body.
	lifecycle(ctx context.Context, action, job string) (any, error)
	// framework is the scan surface SPATE-SQL runs over.
	framework() tasks.Framework
	// stats extends the registry snapshot of /api/stats with families the
	// backend derives on demand.
	stats(snap []obs.Metric) []obs.Metric
}

// exploration is a backend's answer to Q(a, b, w): the aggregates, cells,
// highlights and profile every backend produces, plus what only one of
// them knows.
type exploration struct {
	*core.Result

	// level names the index node that covered the window; "" from a
	// scatter, which has no single covering node.
	level string

	// The degradation contract and the counters of a scatter; zero from an
	// engine, whose answers are never partial.
	partial                                         bool
	missing                                         []telco.TimeRange
	shardsQueried, shardsFailed, hedgeWins, retries int
}

// errUnavailable marks a failure that is the deployment's state rather
// than the request's fault — no streamer or lifecycle manager attached, no
// node of the fleet answering — and is served as 503; errBadRequest marks
// one that is the request's, served as 400.
var (
	errUnavailable = errors.New("unavailable")
	errBadRequest  = errors.New("bad request")
)

func unavailable(err error) error { return fmt.Errorf("%w: %w", errUnavailable, err) }

// statusOf maps a backend failure onto HTTP: a malformed request is 400,
// streaming backpressure 429, a stale epoch or finalized store 409, an
// unavailable dependency or a scatter that lost a shard 503, and anything
// else the server's own 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrBackpressure):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrStaleEpoch), errors.Is(err, core.ErrFinalized):
		return http.StatusConflict
	case errors.Is(err, errUnavailable), errors.Is(err, cluster.ErrDegraded):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// fail writes a backend failure with the status statusOf gives it; a 429
// carries the Retry-After hint the streamer's backlog gives (see
// core.BackpressureError).
func fail(w http.ResponseWriter, err error) {
	code := statusOf(err)
	if code == http.StatusTooManyRequests {
		serving.WriteRetryAfter(w.Header(), serving.RetryAfterFromError(err, time.Second))
	}
	httpErr(w, code, err)
}

// --- one engine ---

// engineBackend serves a single core.Engine, with its optional streaming
// write path and maintenance manager (Server.SetStreamer, SetLifecycle).
type engineBackend struct {
	eng      *core.Engine
	streamer *core.Streamer
	lc       *lifecycle.Manager
}

func (b *engineBackend) explore(ctx context.Context, q core.Query) (exploration, error) {
	res, err := b.eng.ExploreContext(ctx, q)
	if err != nil {
		return exploration{}, err
	}
	return exploration{Result: res, level: res.CoveringLevel.String()}, nil
}

func (b *engineBackend) appendRows(ctx context.Context, req *AppendJSON) (int, error) {
	if b.streamer == nil {
		return 0, unavailable(fmt.Errorf("streaming ingest is not enabled (start with -stream)"))
	}
	recs, err := decodeAppendRows(req)
	if err != nil {
		return 0, err
	}
	if err := b.streamer.AppendAndSeal(ctx, req.Table, recs, req.Seal); err != nil {
		return 0, err
	}
	return len(recs), nil
}

func (b *engineBackend) lifecycle(_ context.Context, action, job string) (any, error) {
	if b.lc == nil {
		return nil, unavailable(fmt.Errorf("webui: no lifecycle manager attached"))
	}
	return b.lc.Act(action, job)
}

func (b *engineBackend) framework() tasks.Framework { return tasks.Spate{E: b.eng} }

// stats adds two synthetic families from the engine's columnar ingest:
// per-column codec wins (spate_column_codec_chunks, labelled
// table/column/codec) and the mean per-chunk entropy that drove each
// choice (spate_column_entropy_bits). Both are derived on demand from
// Engine.ColumnCodecStats rather than registered, so they never go stale
// and cost nothing when no v3 segment has been written.
func (b *engineBackend) stats(snap []obs.Metric) []obs.Metric {
	cs := b.eng.ColumnCodecStats()
	if len(cs) == 0 {
		return snap
	}
	chunks := obs.Metric{
		Name: "spate_column_codec_chunks", Type: "counter",
		Help: "Chunks won by each column codec during columnar (v3) ingest.",
	}
	entropy := obs.Metric{
		Name: "spate_column_entropy_bits", Type: "gauge",
		Help: "Mean per-chunk value entropy per column, in bits.",
	}
	for _, st := range cs {
		for _, cc := range []struct {
			codec string
			n     int
		}{{"plain", st.PlainChunks}, {"dict", st.DictChunks}, {"delta", st.DeltaChunks}} {
			if cc.n == 0 {
				continue
			}
			chunks.Series = append(chunks.Series, obs.Series{
				Labels: map[string]string{"table": st.Table, "column": st.Column, "codec": cc.codec},
				Value:  float64(cc.n),
			})
		}
		entropy.Series = append(entropy.Series, obs.Series{
			Labels: map[string]string{"table": st.Table, "column": st.Column},
			Value:  st.EntropyBits,
		})
	}
	return append(snap, chunks, entropy)
}

// handleSpace serves the engine's storage accounting. It stays engine-only:
// a coordinator holds no store, and summing its nodes' would take an RPC
// the shards do not have.
func (b *engineBackend) handleSpace(w http.ResponseWriter, _ *http.Request) {
	sp := b.eng.Space()
	u := b.eng.FS().Usage()
	writeJSON(w, map[string]any{
		"raw_bytes":               sp.RawBytes,
		"comp_bytes":              sp.CompBytes,
		"summary_bytes":           sp.SummaryBytes,
		"kept_summary_bytes":      sp.KeptSummaryBytes,
		"stored_bytes":            u.StoredBytes,
		"under_replicated_blocks": u.UnderReplicatedBlocks,
		"o1":                      sp.O1,
	})
}

// TreeNodeJSON is one temporal-index node in the /api/tree response — the
// structure the UI's temporal navigation (drill down / roll up) walks.
type TreeNodeJSON struct {
	Level    string         `json:"level"`
	From     string         `json:"from,omitempty"`
	To       string         `json:"to,omitempty"`
	Sealed   bool           `json:"sealed"`
	Decayed  bool           `json:"decayed,omitempty"`
	Rows     int64          `json:"rows,omitempty"`
	Children []TreeNodeJSON `json:"children,omitempty"`
}

func (b *engineBackend) handleTree(w http.ResponseWriter, _ *http.Request) {
	var convert func(n *index.Node) TreeNodeJSON
	convert = func(n *index.Node) TreeNodeJSON {
		out := TreeNodeJSON{
			Level:   n.Level.String(),
			Sealed:  n.Summary != nil,
			Decayed: n.Decayed,
		}
		if !n.Period.From.IsZero() {
			out.From = n.Period.From.Format(telco.TimeLayout)
			out.To = n.Period.To.Format(telco.TimeLayout)
		}
		if n.Summary != nil {
			out.Rows = n.Summary.Rows
		}
		for _, c := range n.Children {
			out.Children = append(out.Children, convert(c))
		}
		return out
	}
	writeJSON(w, convert(b.eng.Tree().Root()))
}

// --- a cluster coordinator ---

// coordBackend serves a cluster.Coordinator: explorations scatter over the
// shard nodes, appends route to the slots owning the rows, and maintenance
// fans out to every node's manager.
type coordBackend struct{ c *cluster.Coordinator }

func (b coordBackend) explore(ctx context.Context, q core.Query) (exploration, error) {
	res, err := b.c.Explore(ctx, q)
	if err != nil {
		return exploration{}, err
	}
	return exploration{
		Result:  &res.Result,
		partial: res.Partial, missing: res.Missing,
		shardsQueried: res.ShardsQueried, shardsFailed: res.ShardsFailed,
		hedgeWins: res.HedgeWins, retries: res.Retries,
	}, nil
}

func (b coordBackend) appendRows(ctx context.Context, req *AppendJSON) (int, error) {
	recs, err := decodeAppendRows(req)
	if err != nil {
		return 0, err
	}
	n, err := b.c.Append(ctx, req.Table, recs)
	if err != nil {
		return 0, err
	}
	if req.Seal {
		if err := b.c.FlushStreams(ctx); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// lifecycle answers with the fleet sweep; it fails only when every node
// did.
func (b coordBackend) lifecycle(ctx context.Context, action, job string) (any, error) {
	sweep, err := b.c.Lifecycle(ctx, action, job)
	if err != nil {
		return nil, unavailable(err)
	}
	return sweep, nil
}

// framework scans fan out through the coordinator and must be complete: a
// degraded scatter fails the statement rather than return a subset.
func (b coordBackend) framework() tasks.Framework { return tasks.Cluster{C: b.c} }

func (b coordBackend) stats(snap []obs.Metric) []obs.Metric { return snap }

// NodeHealthJSON is one node's probe result in /api/health.
type NodeHealthJSON struct {
	URL   string `json:"url"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

func (b coordBackend) handleHealth(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	probes := b.c.Health(ctx)
	out := make([]NodeHealthJSON, 0, len(probes))
	for url, err := range probes {
		h := NodeHealthJSON{URL: url, OK: err == nil}
		if err != nil {
			h.Error = err.Error()
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	writeJSON(w, out)
}
