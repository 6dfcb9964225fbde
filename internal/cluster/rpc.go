package cluster

// The RPC surface is HTTP. Requests, errors (non-200 answers) and every
// control RPC are JSON envelopes; ingest tables travel as the
// delimiter-separated wire text of snapshot tables in a []byte field, which
// encoding/json transports base64-encoded. A 200 /rpc/explore answer is an
// explore frame instead (exploreFrameType): a JSON header, then the shard's
// summary parts in their binary encoding (highlights.Summary.Encode), its
// exact rows as wire text and its partial aggregates in their binary form
// (scanspec.AppendPartials), each length-prefixed — no base64, and nothing
// copied: a node writes the memoized part encodings and the row text
// straight to the response, and a coordinator reads a frame into one
// buffer whose sections it uses in place. Timestamps travel as Unix
// seconds. Trace context propagates out-of-envelope in the X-Spate-Trace
// header (obs.TraceHeader); the shard's recorded subtree rides back in the
// explore frame's header.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"

	"spate/internal/core"
	"spate/internal/highlights"
	"spate/internal/obs"
	"spate/internal/scanspec"
	"spate/internal/telco"
)

type ingestRequest struct {
	// Epoch is the snapshot's 30-minute cycle number.
	Epoch int64 `json:"epoch"`
	// Tables maps table name to its wire-text encoding.
	Tables map[string][]byte `json:"tables"`
}

type ingestResponse struct {
	Rows int `json:"rows"`
	// Duplicate marks an epoch the node had already ingested; replaying a
	// write (a coordinator retry after a lost response) succeeds as a no-op.
	Duplicate bool `json:"duplicate,omitempty"`
}

type appendRequest struct {
	// Table names the schema; Rows are wire-text record lines.
	Table string   `json:"table,omitempty"`
	Rows  []string `json:"rows,omitempty"`
	// Seal asks the node to seal every buffered epoch after applying the
	// rows — the coordinator's stream-flush broadcast.
	Seal bool `json:"seal,omitempty"`
}

type appendResponse struct {
	Rows int `json:"rows"`
}

type exploreRequest struct {
	FromUnix int64 `json:"from"`
	ToUnix   int64 `json:"to"`
	// Rows requests exact records of the window's non-decayed snapshots.
	Rows   bool     `json:"rows,omitempty"`
	Tables []string `json:"tables,omitempty"`
	// Boxed plus the bounds push the spatial predicate down for the row
	// path (summary parts are never box-restricted shard-side: the
	// coordinator restricts after the merge, like a single engine does).
	Boxed bool    `json:"boxed,omitempty"`
	MinX  float64 `json:"minx,omitempty"`
	MinY  float64 `json:"miny,omitempty"`
	MaxX  float64 `json:"maxx,omitempty"`
	MaxY  float64 `json:"maxy,omitempty"`
	// Spec is the pushed-down column/predicate spec. With Rows it is
	// advisory: the shard pre-filters rows on its predicates and exact
	// window and decodes only referenced column streams (unreferenced
	// columns travel as nulls); the caller re-evaluates its full WHERE.
	// With AggTable it is authoritative (see below).
	Spec *scanspec.Spec `json:"spec,omitempty"`
	// AggTable selects aggregate mode: the shard folds Spec's aggregates
	// over the named table's rows — applying window, RequireTS and every
	// predicate exactly — and responds with Partials instead of summary
	// parts or rows.
	AggTable string `json:"agg_table,omitempty"`
}

// exploreResponse is a shard's explore answer. Parts, Rows and Partials
// travel in the explore frame's binary sections, everything else in its
// JSON header.
type exploreResponse struct {
	// Parts are the shard's summary parts in chronological order.
	Parts []encodedPart `json:"-"`
	// Leaves is the node's total snapshot count — zero distinguishes "no
	// data at all" from "no data in this window".
	Leaves int `json:"leaves"`
	// Live counts the node's unsealed memtable rows: a streaming node
	// with no sealed leaf yet still holds answerable data.
	Live    int `json:"live,omitempty"`
	Scanned int `json:"scanned,omitempty"`
	Decayed int `json:"decayed,omitempty"`
	// Rows are the exact records requested, as wire text per table.
	Rows map[string][]byte `json:"-"`
	// Partials are the shard's per-group partial aggregates (aggregate
	// mode); the coordinator merges them key-wise across shards.
	Partials []scanspec.Partial `json:"-"`
	// Profile is the shard-local cost breakdown of serving this request.
	Profile *core.Profile `json:"profile,omitempty"`
	// Trace is the shard-local span subtree, returned when the request
	// carried an X-Spate-Trace header so the coordinator can stitch it
	// under its own slot span.
	Trace *obs.SpanJSON `json:"trace,omitempty"`

	// frameBytes is the size of the frame the answer came in (coordinator
	// side).
	frameBytes int
}

// encodedPart is one summary part as it crosses the wire: its binary
// encoding and, on a coordinator, the period the check of that encoding
// read (highlights.CheckBinary), which orders the merge.
type encodedPart struct {
	data   []byte
	period telco.TimeRange
}

type healthResponse struct {
	OK bool `json:"ok"`
	// Snapshots is the node's leaf count.
	Snapshots int `json:"snapshots"`
	// LastEpoch is the most recent ingested cycle, -1 when empty.
	LastEpoch int64 `json:"last_epoch"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// exploreFrameType is the Content-Type of an explore frame. Its version
// names the frame layout and the encodings inside it together: a
// coordinator refuses any other 200 answer as a version mismatch.
const exploreFrameType = "application/x-spate-explore-frame; v=2"

// The explore frame is /rpc/explore's 200 answer:
//
//	uvarint n, n bytes   JSON header: the exploreResponse without Parts, Rows and Partials
//	uvarint n, n × (uvarint len, part)     each part highlights.Summary.Encode
//	uvarint n, n × (uvarint len, table name, uvarint len, row text)
//	uvarint n, n bytes   partials: scanspec.AppendPartials
//
// A node encodes its parts inside its span (memoized on the summaries) and
// writes the frame once that span has ended, since the header carries it.

// maxFrameBytes bounds the explore frame a coordinator reads: a larger
// Content-Length is refused before anything is allocated for it.
const maxFrameBytes = 1 << 30

// writeExploreFrame answers with resp's frame. The part encodings and the
// row text go to the response as they are; only the header, the partials
// and the length prefixes are rendered here.
func writeExploreFrame(w http.ResponseWriter, resp *exploreResponse) {
	hdr, err := json.Marshal(resp)
	if err != nil {
		rpcError(w, http.StatusInternalServerError, err)
		return
	}
	names := make([]string, 0, len(resp.Rows))
	for name := range resp.Rows {
		names = append(names, name)
	}
	slices.Sort(names)
	var f frameWriter
	f.field(hdr)
	f.uvarint(len(resp.Parts))
	for _, p := range resp.Parts {
		f.field(p.data)
	}
	f.uvarint(len(names))
	for _, name := range names {
		f.field([]byte(name))
		f.field(resp.Rows[name])
	}
	f.field(scanspec.AppendPartials(nil, resp.Partials))
	w.Header().Set("Content-Type", exploreFrameType)
	w.Header().Set("Content-Length", strconv.Itoa(f.n))
	for _, c := range f.chunks {
		w.Write(c)
	}
}

// frameWriter lays an explore frame out as a list of slices: the length
// prefixes, appended to one buffer (a prefix written keeps its bytes
// however the buffer grows after it), and every section as the caller
// holds it.
type frameWriter struct {
	prefixes []byte
	chunks   [][]byte
	n        int
}

func (f *frameWriter) uvarint(v int) {
	at := len(f.prefixes)
	f.prefixes = binary.AppendUvarint(f.prefixes, uint64(v))
	f.add(f.prefixes[at:])
}

func (f *frameWriter) field(b []byte) {
	f.uvarint(len(b))
	f.add(b)
}

func (f *frameWriter) add(b []byte) {
	f.chunks = append(f.chunks, b)
	f.n += len(b)
}

// readFrameBody reads an explore frame's bytes into one buffer sized by the
// answer's Content-Length, which a frame always carries.
func readFrameBody(hresp *http.Response) ([]byte, error) {
	n := hresp.ContentLength
	if n < 0 {
		return nil, errors.New("explore frame: no Content-Length")
	}
	if n > maxFrameBytes {
		return nil, fmt.Errorf("explore frame: %d bytes, over the %d-byte bound", n, maxFrameBytes)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(hresp.Body, data); err != nil {
		return nil, fmt.Errorf("explore frame: %w", err)
	}
	return data, nil
}

// readExploreFrame reads an explore frame, checking each summary part
// (highlights.CheckBinary) without decoding it: Parts, and the row text,
// alias data. Every count is checked against the bytes left before
// anything is sized by it.
func readExploreFrame(data []byte) (*exploreResponse, error) {
	r := frameReader{b: data}
	hdr := r.field()
	if r.err != nil {
		return nil, r.err
	}
	var resp exploreResponse
	if err := json.Unmarshal(hdr, &resp); err != nil {
		return nil, fmt.Errorf("explore frame: header: %w", err)
	}
	resp.frameBytes = len(data)
	n := r.count(1)
	resp.Parts = make([]encodedPart, n)
	for i := range resp.Parts {
		part := r.field()
		if r.err != nil {
			return nil, r.err
		}
		period, err := highlights.CheckBinary(part)
		if err != nil {
			return nil, fmt.Errorf("explore frame: part %d: %w", i, err)
		}
		resp.Parts[i] = encodedPart{data: part, period: period}
	}
	n = r.count(2)
	resp.Rows = make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		name, text := r.field(), r.field()
		resp.Rows[string(name)] = text
	}
	partials := r.field()
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("explore frame: %d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	var err error
	if resp.Partials, err = scanspec.ReadPartials(partials); err != nil {
		return nil, fmt.Errorf("explore frame: %w", err)
	}
	return &resp, nil
}

// checkPartials fails an aggregate-mode answer whose partials do not hold
// one cell per aggregate of the spec the coordinator sent.
func checkPartials(resp *exploreResponse, spec *scanspec.Spec) error {
	for _, p := range resp.Partials {
		if len(p.Cells) != len(spec.Aggs) {
			return fmt.Errorf("explore frame: partial %q holds %d cells for %d aggregates", p.Key, len(p.Cells), len(spec.Aggs))
		}
	}
	return nil
}

var errFrameTruncated = errors.New("explore frame: truncated")

// frameReader reads an explore frame's uvarints and length-prefixed fields;
// the first failure sticks.
type frameReader struct {
	b   []byte
	err error
}

// count reads a count of entries that take at least min bytes each.
func (r *frameReader) count(min int) int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || v > uint64(len(r.b[n:])/min) {
		r.err = errFrameTruncated
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

func (r *frameReader) field() []byte {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	f := r.b[:n:n]
	r.b = r.b[n:]
	return f
}
