// The hot response bodies — an exploration answer and a SQL result — and
// a template answer are written by hand into one pooled buffer instead of
// through encoding/json's reflection. The bytes are encoding/json's own (the
// documented wire types ExploreJSON and friends still describe them), with
// one exception encoding/json has no answer for: a non-finite number,
// which it refuses, is written as null.

package webui

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"spate/internal/core"
	"spate/internal/geo"
	"spate/internal/highlights"
	"spate/internal/obs"
	"spate/internal/sqlengine"
	"spate/internal/telco"
)

// maxPooledBody is the largest buffer that goes back to the pool: a bigger
// one (a wide SELECT *) returns to the heap rather than stay pinned.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// writeBody renders a JSON body with render into a pooled buffer and sends
// it in one write; a render that fails is the server's 500. The length is
// left to net/http, which frames a large body in chunks: the answer then
// ends when the handler returns, after the middleware has booked the
// request's metrics and closed its span, so a client's latency covers all
// the time the server's trace accounts for.
func writeBody(w http.ResponseWriter, render func([]byte) ([]byte, error)) {
	bp := bodyPool.Get().(*[]byte)
	b, err := render((*bp)[:0])
	if err != nil {
		httpErr(w, http.StatusInternalServerError, err)
	} else {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b) // a client gone away leaves nothing to answer
	}
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyPool.Put(bp)
	}
}

// appendExplore writes x as the ExploreJSON encoding/json would write, in
// its field order and omitempty rules, newline included. attr is the
// request's attr= selection and profile whether it asked for profile=1.
func (s *Server) appendExplore(b []byte, x exploration, attr string, profile bool) ([]byte, error) {
	b = append(b, '{')
	if x.level != "" {
		b = append(b, `"covering_level":`...)
		b = appendString(b, x.level)
		b = append(b, ',')
	}
	b = append(b, `"rows":`...)
	b = strconv.AppendInt(b, x.Summary.Rows, 10)
	b = append(b, `,"decayed_leaves":`...)
	b = strconv.AppendInt(b, int64(x.DecayedLeaves), 10)
	b = append(b, `,"cache_hit":`...)
	b = strconv.AppendBool(b, x.CacheHit)
	b = append(b, `,"cells":`...)
	b = s.appendCells(b, x.Result, attr)
	b = append(b, `,"highlights":`...)
	b = appendHighlights(b, x.Highlights)
	if len(x.Stages) > 0 {
		b = append(b, `,"stages_ms":`...)
		b = appendStages(b, x.Stages)
	}
	b = append(b, `,"partial":`...)
	b = strconv.AppendBool(b, x.partial)
	if len(x.missing) > 0 {
		b = append(b, `,"missing":[`...)
		for i, m := range x.missing {
			if i > 0 {
				b = append(b, ',')
			}
			// A wire timestamp is digits (and a sign): nothing to escape.
			b = append(b, `{"from":"`...)
			b = m.From.AppendFormat(b, telco.TimeLayout)
			b = append(b, `","to":"`...)
			b = m.To.AppendFormat(b, telco.TimeLayout)
			b = append(b, `"}`...)
		}
		b = append(b, ']')
	}
	b = appendCount(b, `,"shards_queried":`, x.shardsQueried)
	b = appendCount(b, `,"shards_failed":`, x.shardsFailed)
	b = appendCount(b, `,"hedge_wins":`, x.hedgeWins)
	b = appendCount(b, `,"retries":`, x.retries)
	if x.Profile.TraceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendString(b, x.Profile.TraceID)
	}
	if profile {
		// The profile is asked for rarely and holds nested slices: it keeps
		// encoding/json.
		p, err := json.Marshal(&x.Profile)
		if err != nil {
			return b, err
		}
		b = append(b, `,"profile":`...)
		b = append(b, p...)
	}
	return append(b, "}\n"...), nil
}

// appendCount writes an omitempty int field.
func appendCount(b []byte, key string, n int) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(n), 10)
}

// appendCells writes the per-cell answer. A cell's value is the sum of the
// attribute attr= names; with none named, the sum of the attribute whose
// "table.attribute" name is the smallest the cell holds, compared as whole
// strings. attr= is resolved once per answer (see attrPick), not compared
// with every attribute of every cell. A cache hit renders through the
// answer's memo: the first hit renders and keeps the bytes, later hits
// that resolve attr= alike copy them. A miss keeps nothing, so answers
// asked once cost no copy.
func (s *Server) appendCells(b []byte, r *core.Result, attr string) []byte {
	if len(r.Cells) == 0 {
		return append(b, "null"...)
	}
	p := pickAttr(attr, r.Cells)
	if r.CacheHit {
		if cells, ok := r.RenderedCells(p.key); ok {
			return append(b, cells...)
		}
	}
	start := len(b)
	var fresh []cellHead
	s.heads.mu.RLock()
	b = append(b, '[')
	for i, cs := range r.Cells {
		if i > 0 {
			b = append(b, ',')
		}
		v, _, _ := p.read(cs.Attr)
		if head, ok := s.heads.m[cs.CellID]; ok {
			b = append(b, head...)
		} else {
			start := len(b)
			b = appendCellHead(b, cs.CellID, cs.Loc)
			fresh = append(fresh, cellHead{cs.CellID, string(b[start:])})
		}
		b = append(b, `,"rows":`...)
		b = strconv.AppendInt(b, cs.Rows, 10)
		b = append(b, `,"value":`...)
		b = appendFloat(b, v)
		b = append(b, '}')
	}
	s.heads.mu.RUnlock()
	s.heads.add(fresh)
	b = append(b, ']')
	if r.CacheHit {
		r.MemoizeCells(p.key, b[start:])
	}
	return b
}

// attrPick reads one attribute's sum out of an answer's cell views by the
// attribute's position in their dictionary. All of an answer's views
// share one dictionary (core.CellSeries), so the pick is resolved once per
// answer.
type attrPick struct {
	order []int // dictionary positions to read, the first a view holds read
	key   int32 // what the positions name, as the answer's memo keys a rendering
}

// The memo keys of the picks that read no one position.
const (
	keyNone     = -1 // no attribute: every value 0
	keySmallest = -2 // each cell's smallest-named attribute
)

// pickAttr resolves attr= against the dictionary of cells: the attribute
// it names, every attribute in name order when it is empty, or nothing
// when it has no dot (table names carry no '.', so the first one separates
// table and attribute, and without one no table is named).
func pickAttr(attr string, cells []core.CellSeries) attrPick {
	table, name, dotted := strings.Cut(attr, ".")
	switch {
	case attr == "":
		dict := dictOf(cells)
		p := attrPick{order: make([]int, len(dict)), key: keySmallest}
		names := make([]string, len(dict))
		for i, ref := range dict {
			p.order[i], names[i] = i, ref.String()
		}
		// Stable: equal names keep the dictionary's order, which is the
		// views' own.
		slices.SortStableFunc(p.order, func(i, j int) int { return strings.Compare(names[i], names[j]) })
		return p
	case dotted:
		return pickRef(highlights.AttrRef{Table: table, Attr: name}, cells)
	}
	return attrPick{key: keyNone}
}

// pickRef resolves the attribute ref against the dictionary of cells.
func pickRef(ref highlights.AttrRef, cells []core.CellSeries) attrPick {
	if i := slices.Index(dictOf(cells), ref); i >= 0 {
		return attrPick{order: []int{i}, key: int32(i)}
	}
	return attrPick{key: keyNone}
}

// dictOf is the dictionary all of cells' views share: the first one a
// view has (the zero view, which holds no attribute, has none).
func dictOf(cells []core.CellSeries) []highlights.AttrRef {
	for _, cs := range cells {
		if d := cs.Attr.Dict(); d != nil {
			return d
		}
	}
	return nil
}

// read returns the picked attribute's sum and non-null count in a, and
// whether a holds it.
func (p attrPick) read(a highlights.Attrs) (sum float64, nonNull int64, ok bool) {
	for _, i := range p.order {
		if sum, nonNull, ok = a.Sum(i); ok {
			return sum, nonNull, true
		}
	}
	return 0, 0, false
}

// cellHeads memoizes each cell's `{"id":…,"x":…,"y":…`, formatted the
// first time an answer carries the cell: printing its two coordinates on
// every answer was most of an answer's rendering. A cell's location is
// read from the backend's core.CellInventory, which is built once and
// never changes, and an answer carries only the inventory's cells
// (Restrict drops the rest), so an entry never goes stale and the memo
// holds at most one entry per inventory cell.
type cellHeads struct {
	mu sync.RWMutex
	m  map[int64]string
}

type cellHead struct {
	id   int64
	head string
}

// add memoizes heads formatted outside the memo.
func (c *cellHeads) add(heads []cellHead) {
	if len(heads) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[int64]string, len(heads))
	}
	for _, h := range heads {
		c.m[h.id] = h.head
	}
}

func appendCellHead(b []byte, id int64, loc geo.Point) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, id, 10)
	b = append(b, `,"x":`...)
	b = appendFloat(b, loc.X)
	b = append(b, `,"y":`...)
	return appendFloat(b, loc.Y)
}

func appendHighlights(b []byte, hs []highlights.Highlight) []byte {
	if len(hs) == 0 {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, h := range hs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"attr":"`...)
		b = appendEscaped(b, h.Attr.Table)
		b = append(b, '.')
		b = appendEscaped(b, h.Attr.Attr)
		if h.Kind == highlights.Categorical {
			b = append(b, `","kind":"categorical"`...)
		} else {
			b = append(b, `","kind":"peak"`...)
		}
		if h.Value != "" {
			b = append(b, `,"value":`...)
			b = appendString(b, h.Value)
		}
		// omitempty drops a float equal to 0, -0 included.
		if h.Frequency != 0 {
			b = append(b, `,"freq":`...)
			b = appendFloat(b, h.Frequency)
		}
		if h.PeakValue != 0 {
			b = append(b, `,"peak":`...)
			b = appendFloat(b, h.PeakValue)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendStages writes the stage breakdown as encoding/json writes the map
// it used to be: one key per name (a later stage of a name replacing an
// earlier one), keys in sorted order, values in milliseconds.
func appendStages(b []byte, stages []obs.Stage) []byte {
	var buf [16]obs.Stage
	byName := buf[:0]
	for _, st := range stages {
		if i := slices.IndexFunc(byName, func(o obs.Stage) bool { return o.Name == st.Name }); i >= 0 {
			byName[i] = st
		} else {
			byName = append(byName, st)
		}
	}
	slices.SortFunc(byName, func(x, y obs.Stage) int { return strings.Compare(x.Name, y.Name) })
	b = append(b, '{')
	for i, st := range byName {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, st.Name)
		b = append(b, ':')
		b = appendFloat(b, float64(st.Duration)/float64(time.Millisecond))
	}
	return append(b, '}')
}

// appendSQL writes a result set as {"cols":[…],"rows":[[…],…]}, every value
// in its wire text form (a NULL as ""). Rows held in batches are written
// straight from their typed columns, as the same bytes.
func appendSQL(b []byte, rs *sqlengine.ResultSet) []byte {
	b = append(b, `{"cols":`...)
	if rs.Cols == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range rs.Cols {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c)
		}
		b = append(b, ']')
	}
	b = append(b, `,"rows":[`...)
	for i, row := range rs.Rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendValue(b, v)
		}
		b = append(b, ']')
	}
	comma := len(rs.Rows) > 0
	for _, bt := range rs.Batches {
		for i := 0; i < bt.N; i++ {
			if comma {
				b = append(b, ',')
			}
			comma = true
			b = append(b, '[')
			for j, k := range rs.Pick {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendCell(b, &bt.Cols[k], i)
			}
			b = append(b, ']')
		}
	}
	return append(b, "]}\n"...)
}

// appendCell writes row i of c as appendValue writes the value
// telco.Batch.AppendRecords makes of it: a null or blank string as "".
func appendCell(b []byte, c *telco.Column, i int) []byte {
	if c.Null(i) {
		return append(b, '"', '"')
	}
	switch c.Kind {
	case telco.KindString:
		return appendString(b, c.Bytes(i))
	case telco.KindInt:
		b = strconv.AppendInt(append(b, '"'), c.Ints[i], 10)
	case telco.KindFloat:
		b = strconv.AppendFloat(append(b, '"'), c.Floats[i], 'g', -1, 64)
	case telco.KindTime:
		b = time.Unix(c.Ints[i], 0).UTC().AppendFormat(append(b, '"'), telco.TimeLayout)
	default:
		b = append(b, '"')
	}
	return append(b, '"')
}

// appendValue writes v.Format() as a JSON string without building it. Only
// a string value can need escaping: numbers and wire timestamps are
// digits, signs, '.', 'e', "NaN" and "Inf".
func appendValue(b []byte, v telco.Value) []byte {
	switch v.Kind() {
	case telco.KindString:
		return appendString(b, v.Str())
	case telco.KindInt:
		b = strconv.AppendInt(append(b, '"'), v.Int64(), 10)
	case telco.KindFloat:
		b = strconv.AppendFloat(append(b, '"'), v.Float64(), 'g', -1, 64)
	case telco.KindTime:
		b = v.Time().AppendFormat(append(b, '"'), telco.TimeLayout)
	default:
		b = append(b, '"')
	}
	return append(b, '"')
}

// appendString writes s as encoding/json does, HTML escaping included.
func appendString[S string | []byte](b []byte, s S) []byte {
	return append(appendEscaped(append(b, '"'), s), '"')
}

const hexDigits = "0123456789abcdef"

// appendEscaped writes the inside of appendString's quotes: '"', '\\' and
// control characters escaped, '<', '>' and '&' as \u00XX, an invalid UTF-8
// byte as the escaped replacement character U+FFFD, and U+2028/U+2029
// escaped (JavaScript reads them as line ends).
func appendEscaped[S string | []byte](b []byte, s S) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// appendFloat writes f as encoding/json does — 'f' form, or 'e' below 1e-6
// and from 1e21 on with a one-digit exponent left unpadded — and a NaN or
// infinity, which encoding/json refuses, as null. An integral value under
// 2^53 other than -0 takes the cheaper integer path, which prints the same
// digits; from 2^53 on it would not (2^60 is 1152921504606847000 to
// encoding/json, the shortest decimal that reads back as the same float).
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	abs := math.Abs(f)
	if abs < 1<<53 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, int64(f), 10)
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
