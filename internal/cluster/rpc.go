package cluster

// The RPC surface is HTTP. Requests, errors (non-200 answers) and every
// control RPC are JSON envelopes; ingest tables travel as the
// delimiter-separated wire text of snapshot tables in a []byte field, which
// encoding/json transports base64-encoded. A 200 /rpc/explore answer is an
// explore frame instead (exploreFrameType): a JSON header, then the shard's
// summary parts, each as the SHA-256 of its binary encoding
// (highlights.Summary.Digest) followed by that encoding
// (highlights.Summary.Encode) — or by nothing, when the request's have list
// named the digest — its exact rows as record text in the layout the shard
// scanned them in (the section names the layout's fields) and its partial
// aggregates in their binary form (scanspec.AppendPartials), each
// length-prefixed — no base64, and no copies on the node: it writes the
// memoized part encodings and digests and the row text straight to the
// response. A coordinator reads a frame into one buffer and decodes every
// section of it once, in the goroutine that asked the replica: rows into
// tables of their layout, partials, and parts into summaries — a part only
// when its digest is not already in the coordinator's part memo
// (partMemo), which keeps decoded parts by content; a part whose bytes were
// left out is the one the coordinator named, and holds, already. Timestamps
// travel as Unix seconds. Trace context propagates out-of-envelope in the
// X-Spate-Trace header (obs.TraceHeader); the shard's recorded subtree
// rides back in the explore frame's header.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"spate/internal/cache"
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
	// window, decodes only referenced column streams and ships its rows
	// narrow, in that layout (the referenced columns plus the timestamp, in
	// stored order); the caller re-evaluates its full WHERE. With AggTable
	// it is authoritative (see below).
	Spec *scanspec.Spec `json:"spec,omitempty"`
	// AggTable selects aggregate mode: the shard folds Spec's aggregates
	// over the named table's rows — applying window, RequireTS and every
	// predicate exactly — and responds with Partials instead of summary
	// parts or rows.
	AggTable string `json:"agg_table,omitempty"`
	// Have names summary parts the coordinator holds decoded, as their
	// digests concatenated (at most maxHave of them): the node writes such
	// a part's digest and leaves its bytes out.
	Have []byte `json:"have,omitempty"`

	// held is the coordinator's side of Have: the parts it named, by
	// digest. It keeps them for the request's lifetime, so a part whose
	// bytes the answer leaves out is at hand however the part memo evicts
	// meanwhile.
	held map[string]*highlights.Summary
}

// maxHave bounds the digests a have list names; a node refuses a longer
// one. A coordinator names the parts of one kept answer, which are a few
// dozen even for a window of years (day, month and year parts).
const maxHave = 4096

// readHave checks a have list and returns its digests as a set.
func readHave(have []byte) (map[string]bool, error) {
	if len(have)%sha256.Size != 0 {
		return nil, fmt.Errorf("have: %d bytes are not a list of %d-byte digests", len(have), sha256.Size)
	}
	n := len(have) / sha256.Size
	if n > maxHave {
		return nil, fmt.Errorf("have: %d digests, over the bound of %d", n, maxHave)
	}
	if n == 0 {
		return nil, nil
	}
	set := make(map[string]bool, n)
	for i := 0; i < len(have); i += sha256.Size {
		set[string(have[i:i+sha256.Size])] = true
	}
	return set, nil
}

// exploreResponse is a shard's explore answer. Parts, Rows and Partials
// travel in the explore frame's binary sections (frameSections), everything
// else in its JSON header; a coordinator holds the sections decoded.
type exploreResponse struct {
	// Parts are the shard's summary parts in chronological order.
	Parts []*highlights.Summary `json:"-"`
	// Leaves is the node's total snapshot count — zero distinguishes "no
	// data at all" from "no data in this window".
	Leaves int `json:"leaves"`
	// Live counts the node's unsealed memtable rows: a streaming node
	// with no sealed leaf yet still holds answerable data.
	Live    int `json:"live,omitempty"`
	Scanned int `json:"scanned,omitempty"`
	Decayed int `json:"decayed,omitempty"`
	// Rows are the exact records requested, per table in the layout the
	// shard scanned.
	Rows map[string]*telco.Table `json:"-"`
	// Partials are the shard's per-group partial aggregates (aggregate
	// mode); the coordinator merges them key-wise across shards.
	Partials []scanspec.Partial `json:"-"`
	// Profile is the shard-local cost breakdown of serving this request.
	Profile *core.Profile `json:"profile,omitempty"`
	// Trace is the shard-local span subtree, returned when the request
	// carried an X-Spate-Trace header so the coordinator can stitch it
	// under its own slot span.
	Trace *obs.SpanJSON `json:"trace,omitempty"`

	// digests are the parts' SHA-256s, concatenated in frame order;
	// frameBytes is the size of the frame the answer came in, rows the
	// number of rows decoded from it, and partsDecoded, partsReused and
	// partsOmitted count its parts decoded from the frame, the rest, and of
	// those the parts whose bytes it left out (coordinator side).
	digests                                 string
	frameBytes, rows                        int
	partsDecoded, partsReused, partsOmitted int
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
const exploreFrameType = "application/x-spate-explore-frame; v=5"

// The explore frame is /rpc/explore's 200 answer:
//
//	uvarint n, n bytes   JSON header: the exploreResponse without Parts, Rows and Partials
//	uvarint n, n × (32-byte digest, uvarint len, part)
//	                     part highlights.Summary.Encode, digest its SHA-256;
//	                     len 0 and no part for a digest the request's have named
//	uvarint n, n × (uvarint len, table name, uvarint len, field list, uvarint len, row text)
//	uvarint n, n bytes   partials: scanspec.AppendPartials
//
// A table's field list names its layout: fields of the stored table, each
// once, in stored order, joined by the record delimiter '|' — the stored
// table itself for a full-width scan, its projection (telco.Schema.Project)
// for a narrow one. The row text is one record line per row under that
// layout. A node lays its sections out inside its span (part encodings and
// digests are memoized on the summaries) and writes the frame once that
// span has ended, since the header carries it.
//
// A part's bytes travel unless the request's have list named its digest —
// the parts of the answer the coordinator keeps for the query, which it
// holds decoded — and an encoding is never empty, so length 0 says "left
// out" unambiguously. The digest travels either way: the coordinator
// serves its kept answer when every slot's digests are the ones the answer
// was merged from. A part the coordinator did not name travels whole, even
// one its memo holds, and what its digest saves then is the decode.

// maxFrameBytes bounds the explore frame a coordinator reads: a larger
// Content-Length is refused before anything is allocated for it.
const maxFrameBytes = 1 << 30

// frameSections lays out the sections of an explore frame that follow its
// header: the parts' digests and encodings — no encoding for a part whose
// digest is in have — each rows table (name, field list, row text; names
// sorted) and the partials.
func frameSections(parts []*highlights.Summary, have map[string]bool, rows map[string]*telco.Table, partials []scanspec.Partial) *frameWriter {
	f := new(frameWriter)
	f.uvarint(len(parts))
	for _, p := range parts {
		sum := p.Digest()
		f.digest(sum)
		if have[string(sum[:])] {
			f.uvarint(0)
			continue
		}
		data, _ := p.Encode() // never fails
		f.field(data)
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	slices.Sort(names)
	f.uvarint(len(names))
	for _, name := range names {
		t := rows[name]
		f.field([]byte(name))
		f.field([]byte(strings.Join(t.Schema.FieldNames(), "|")))
		f.field(wireText(t))
	}
	f.field(scanspec.AppendPartials(nil, partials))
	return f
}

// wireText renders a table's rows as record lines under its own layout.
func wireText(t *telco.Table) []byte {
	var buf []byte
	var fields []string
	for _, r := range t.Rows {
		fields = r.AppendFields(fields[:0])
		for i, f := range fields {
			if i > 0 {
				buf = append(buf, '|')
			}
			buf = append(buf, f...)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// writeExploreFrame answers with a frame of resp's header and the sections
// laid out in body. Only the header and its length prefix are rendered
// here; the sections go to the response as body holds them.
func writeExploreFrame(w http.ResponseWriter, resp *exploreResponse, body *frameWriter) {
	hdr, err := json.Marshal(resp)
	if err != nil {
		rpcError(w, http.StatusInternalServerError, err)
		return
	}
	var head frameWriter
	head.field(hdr)
	w.Header().Set("Content-Type", exploreFrameType)
	w.Header().Set("Content-Length", strconv.Itoa(head.n+body.n))
	for _, c := range slices.Concat(head.chunks, body.chunks) {
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

// digest appends a part's digest to the prefix buffer.
func (f *frameWriter) digest(sum [sha256.Size]byte) {
	at := len(f.prefixes)
	f.prefixes = append(f.prefixes, sum[:]...)
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

// readExploreFrame reads an explore frame and decodes every section of it:
// each summary part through the part memo (partMemo.part) — or, when the
// frame left its bytes out, as the part held names by its digest, and a
// digest held does not name fails the frame — each rows table into a table
// of the layout its field list names (readRows), and the partials. Every
// count is checked against the bytes left before anything is sized by it,
// so what it allocates is bounded by the frame's length.
func readExploreFrame(data []byte, parts *partMemo, held map[string]*highlights.Summary) (*exploreResponse, error) {
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
	n := r.count(sha256.Size + 1)
	resp.Parts = make([]*highlights.Summary, n)
	digests := make([]byte, 0, n*sha256.Size)
	for i := range resp.Parts {
		sum, part := r.fixed(sha256.Size), r.field()
		if r.err != nil {
			return nil, r.err
		}
		digests = append(digests, sum...)
		if len(part) == 0 {
			s, ok := held[string(sum)]
			if !ok {
				return nil, fmt.Errorf("explore frame: part %d: %w", i, errPartOmitted)
			}
			resp.Parts[i] = s
			resp.partsReused++
			resp.partsOmitted++
			continue
		}
		s, decoded, err := parts.part(sum, part)
		if err != nil {
			return nil, fmt.Errorf("explore frame: part %d: %w", i, err)
		}
		if decoded {
			resp.partsDecoded++
		} else {
			resp.partsReused++
		}
		resp.Parts[i] = s
	}
	resp.digests = string(digests)
	n = r.count(3)
	resp.Rows = make(map[string]*telco.Table)
	for i := 0; i < n; i++ {
		name, fields, text := r.field(), r.field(), r.field()
		if r.err != nil {
			return nil, r.err
		}
		if _, dup := resp.Rows[string(name)]; dup {
			return nil, fmt.Errorf("explore frame: rows table %q twice", name)
		}
		t, err := readRows(string(name), fields, text)
		if err != nil {
			return nil, fmt.Errorf("explore frame: rows table %q: %w", name, err)
		}
		resp.Rows[t.Schema.Name] = t
		resp.rows += t.Len()
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

// readRows decodes one rows table: its layout is the stored table's fields
// the field list names — each once, in stored order — and its text splits
// in place into records of that layout (telco.DecodeRows).
func readRows(name string, fields, text []byte) (*telco.Table, error) {
	full := telco.SchemaByName(name)
	if full == nil {
		return nil, errors.New("unknown table")
	}
	var cols []int
	for _, field := range strings.Split(string(fields), "|") {
		c := full.FieldIndex(field)
		switch {
		case c < 0:
			return nil, fmt.Errorf("unknown field %q", field)
		case len(cols) > 0 && c <= cols[len(cols)-1]:
			return nil, fmt.Errorf("field %q repeated or out of stored order", field)
		}
		cols = append(cols, c)
	}
	layout := full.Project(cols)
	rows, _, err := telco.DecodeRows(layout, nil, text)
	if err != nil {
		return nil, err
	}
	return &telco.Table{Schema: layout, Rows: rows}, nil
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
	return r.fixed(r.count(1))
}

// fixed reads the next n bytes.
func (r *frameReader) fixed(n int) []byte {
	if r.err == nil && n > len(r.b) {
		r.err = errFrameTruncated
	}
	if r.err != nil {
		return nil
	}
	f := r.b[:n:n]
	r.b = r.b[n:]
	return f
}

// partMemoBytes bounds the decoded parts a coordinator keeps, as
// highlights.Summary.SizeHint charges them. A decoded day or leaf part of
// a modest feed takes tens to a few hundred KiB, so the bound holds a few
// hundred of them: every part a working set of windows touches.
const partMemoBytes = 32 << 20

// partMemo is a coordinator's decoded shard parts, kept by the SHA-256 of
// their encoding. A summary never changes once built, and equal digests
// mean equal encodings, so an entry can never go stale: ingest, appends,
// seals, decay and compaction on the shards need no invalidation here —
// a part they change is a part with another digest, and the old entry
// ages out of the LRU. Its hits, misses and bytes report as
// spate_cluster_part_cache_*.
type partMemo struct {
	lru *cache.LRU[*highlights.Summary]
}

func newPartMemo(reg *obs.Registry) *partMemo {
	return &partMemo{lru: cache.New("spate_cluster_part_cache", "Decoded shard summary parts",
		partMemoBytes, (*highlights.Summary).SizeHint, reg)}
}

var (
	errPartDigest  = errors.New("part bytes do not hash to their digest")
	errPartOmitted = errors.New("part bytes left out, but the request did not name its digest")
)

// part returns the summary whose encoding hashes to sum: the one the memo
// holds, else data decoded — once, however many replicas' frames carry it
// at the same moment (cache.LRU.Do). Only a decode checks data against
// sum, before anything of it is decoded or kept; a mismatch fails like a
// malformed part. decoded reports that this call decoded data itself.
func (m *partMemo) part(sum, data []byte) (s *highlights.Summary, decoded bool, err error) {
	s, _, err = m.lru.Do(string(sum), func() (*highlights.Summary, error) {
		decoded = true
		if got := sha256.Sum256(data); string(got[:]) != string(sum) {
			return nil, errPartDigest
		}
		return highlights.DecodeBinary(data)
	})
	return s, decoded, err
}

// held looks up the parts a kept answer was merged from (slots: each slot's
// digests, concatenated) and returns the ones the memo still holds: their
// digests, concatenated as a have list — at most maxHave of them — and the
// parts by digest. A lookup marks the part recently used, so the parts of
// an answer asked often stay in the memo however rarely they are decoded.
func (m *partMemo) held(slots []string) (have []byte, parts map[string]*highlights.Summary) {
	for _, digests := range slots {
		for i := 0; i+sha256.Size <= len(digests); i += sha256.Size {
			if len(parts) == maxHave {
				return have, parts
			}
			sum := digests[i : i+sha256.Size]
			s, ok := m.lru.Get(sum)
			if !ok {
				continue
			}
			if parts == nil {
				parts = make(map[string]*highlights.Summary)
			}
			if _, dup := parts[sum]; !dup {
				parts[sum] = s
				have = append(have, sum...)
			}
		}
	}
	return have, parts
}
