// Streaming append endpoint of the SPATE-UI: POST /api/append feeds rows
// into the streaming ingest path (WAL + memtable), so they are explorable
// as soon as the response returns — before their epoch seals into a
// compressed leaf. Over a coordinator the rows route to the slots owning
// them by the day-block shard map.

package webui

import (
	"encoding/json"
	"fmt"
	"net/http"

	"spate/internal/core"
	"spate/internal/telco"
)

// AppendJSON is the wire form of a streaming append request.
type AppendJSON struct {
	// Table names the schema; Rows are wire-text record lines (the same
	// delimiter format the snapshot tables use).
	Table string   `json:"table"`
	Rows  []string `json:"rows"`
	// Seal requests a seal of every buffered epoch after the rows apply —
	// the streaming equivalent of finishing a batch load.
	Seal bool `json:"seal,omitempty"`
}

// AppendResultJSON is the wire form of a streaming append answer.
type AppendResultJSON struct {
	Rows int `json:"rows"`
}

// decodeAppendRows parses a request's wire-text lines against its table's
// schema; a request that does not parse is the client's (errBadRequest).
func decodeAppendRows(req *AppendJSON) ([]telco.Record, error) {
	recs, err := telco.DecodeLines(req.Table, req.Rows)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errBadRequest, err)
	}
	return recs, nil
}

// SetStreamer attaches the engine's streaming ingest path; /api/append
// serves 503 until one is set. It has no effect over a coordinator, whose
// nodes own their streamers.
func (s *Server) SetStreamer(st *core.Streamer) {
	if b, ok := s.b.(*engineBackend); ok {
		b.streamer = st
	}
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req AppendJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpErr(w, http.StatusBadRequest, err)
		return
	}
	n, err := s.b.appendRows(r.Context(), &req)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, AppendResultJSON{Rows: n})
}
