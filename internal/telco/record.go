package telco

import (
	"fmt"
	"strings"
)

// Record is one row of attribute values under a Schema. Positions align
// with Schema.Fields.
type Record []Value

// sep is the wire delimiter between attribute values. Telco trace files are
// delimiter-separated text; values containing the delimiter, backslashes or
// newlines are escaped so every record round-trips through one text line.
const sep = '|'

// EncodeLine renders the record as one delimiter-separated text line
// (without the trailing newline).
func (r Record) EncodeLine(b *strings.Builder) {
	for i, v := range r {
		if i > 0 {
			b.WriteByte(sep)
		}
		escapeInto(b, v.Format())
	}
}

// Line is a convenience wrapper around EncodeLine.
func (r Record) Line() string {
	var b strings.Builder
	r.EncodeLine(&b)
	return b.String()
}

// AppendFields appends each attribute's escaped wire field to dst — the
// per-column pieces EncodeLine joins with the delimiter. Escaped fields
// contain no raw delimiter or newline, so column-major storage can re-join
// them into the exact wire line.
func (r Record) AppendFields(dst []string) []string {
	var b strings.Builder
	for _, v := range r {
		s := v.Format()
		if !strings.ContainsAny(s, "|\\\n") {
			dst = append(dst, s)
			continue
		}
		b.Reset()
		escapeInto(&b, s)
		dst = append(dst, b.String())
	}
	return dst
}

// ParseField parses one escaped wire field (as AppendFields renders) into
// a value of kind k.
func ParseField(k Kind, field string) (Value, error) {
	return ParseValue(k, unescape(field))
}

// SplitFields splits one wire line (without its trailing newline) into its
// escaped fields — the inverse of joining AppendFields output with the
// delimiter. Rewriting stored rows through SplitFields + column storage
// reproduces the original line byte for byte, which re-rendering decoded
// values cannot guarantee.
func SplitFields(line string) []string { return splitEscaped(line) }

func escapeInto(b *strings.Builder, s string) {
	if !strings.ContainsAny(s, "|\\\n") {
		b.WriteString(s)
		return
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '|':
			b.WriteString(`\p`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
}

func unescape(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' || i+1 == len(s) {
			b.WriteByte(c)
			continue
		}
		i++
		switch s[i] {
		case 'p':
			b.WriteByte('|')
		case 'n':
			b.WriteByte('\n')
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// DecodeLine parses one text line into a record under schema s.
func DecodeLine(s *Schema, line string) (Record, error) {
	parts := splitEscaped(line)
	if len(parts) != len(s.Fields) {
		return nil, fmt.Errorf("telco: schema %q: line has %d fields, want %d", s.Name, len(parts), len(s.Fields))
	}
	rec := make(Record, len(parts))
	for i, p := range parts {
		v, err := ParseValue(s.Fields[i].Kind, unescape(p))
		if err != nil {
			return nil, fmt.Errorf("telco: field %q: %w", s.Fields[i].Name, err)
		}
		rec[i] = v
	}
	return rec, nil
}

// DecodeLines parses wire-text lines under the schema of the named table —
// the rows of a streaming append request.
func DecodeLines(table string, lines []string) ([]Record, error) {
	if len(lines) == 0 {
		return nil, nil
	}
	s := SchemaByName(table)
	if s == nil {
		return nil, fmt.Errorf("telco: unknown table %q", table)
	}
	recs := make([]Record, 0, len(lines))
	for _, line := range lines {
		rec, err := DecodeLine(s, line)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// splitEscaped splits on the delimiter while respecting backslash escapes.
func splitEscaped(line string) []string {
	// Fast path: no escapes at all.
	if !strings.ContainsRune(line, '\\') {
		return strings.Split(line, string(sep))
	}
	var parts []string
	start := 0
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			i++ // skip the escaped byte
		case sep:
			parts = append(parts, line[start:i])
			start = i + 1
		}
	}
	return append(parts, line[start:])
}

// Get returns the value of the named field, or Null when absent.
func (r Record) Get(s *Schema, name string) Value {
	i := s.FieldIndex(name)
	if i < 0 || i >= len(r) {
		return Null
	}
	return r[i]
}

// Clone returns a copy of the record.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	copy(out, r)
	return out
}
