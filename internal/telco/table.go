package telco

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Table is an in-memory batch of records under one schema — the unit in
// which telco data arrives ("a snapshot di can be seen as a table of records
// with a predefined set of attributes", paper §II-B).
type Table struct {
	Schema *Schema
	Rows   []Record
}

// NewTable returns an empty table for schema s.
func NewTable(s *Schema) *Table { return &Table{Schema: s} }

// Append adds a record to the table. The record length must match the
// schema; mismatches indicate a programming error and panic.
func (t *Table) Append(r Record) {
	if len(r) != t.Schema.NumFields() {
		panic(fmt.Sprintf("telco: append %d values to schema %q with %d fields",
			len(r), t.Schema.Name, t.Schema.NumFields()))
	}
	t.Rows = append(t.Rows, r)
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// WriteText streams the table in its wire form: one delimiter-separated
// line per record, newline-terminated. This is the format RAW stores on the
// distributed file system and SPATE compresses.
func (t *Table) WriteText(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var b strings.Builder
	for _, r := range t.Rows {
		b.Reset()
		r.EncodeLine(&b)
		b.WriteByte('\n')
		if _, err := bw.WriteString(b.String()); err != nil {
			return fmt.Errorf("telco: write table %q: %w", t.Schema.Name, err)
		}
	}
	return bw.Flush()
}

// Text renders the table to a string; mainly for small tables and tests.
func (t *Table) Text() string {
	var sb strings.Builder
	var b strings.Builder
	for _, r := range t.Rows {
		b.Reset()
		r.EncodeLine(&b)
		sb.WriteString(b.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ReadTable parses a wire-form stream into a table under schema s.
func ReadTable(s *Schema, r io.Reader) (*Table, error) {
	t := NewTable(s)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec, err := DecodeLine(s, sc.Text())
		if err != nil {
			return nil, fmt.Errorf("telco: line %d: %w", line, err)
		}
		t.Rows = append(t.Rows, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telco: read table %q: %w", s.Name, err)
	}
	return t, nil
}

// Column extracts the values of the named field across all rows.
// Unknown fields yield an all-null column.
func (t *Table) Column(name string) []Value {
	i := t.Schema.FieldIndex(name)
	out := make([]Value, len(t.Rows))
	if i < 0 {
		return out
	}
	for j, r := range t.Rows {
		out[j] = r[i]
	}
	return out
}

// DecodeRows parses wire text under schema s into records holding only the
// fields at cols (ascending schema positions; nil keeps every field) — the
// rows of a Table under s.Project(cols). It makes one pass over the bytes:
// fields outside cols are stepped over, never split out or parsed. It
// accepts the text ReadTable accepts, and every record equals the matching
// ReadTable row restricted to cols. wire is the share of the text the kept
// fields stand for, each with one separator. What it allocates is bounded
// by the length of text, whatever the text holds: a line of s takes at
// least len(s.Fields)-1 separators, so no more rows than that allows are
// sized for.
func DecodeRows(s *Schema, cols []int, text []byte) (rows []Record, wire int64, err error) {
	width := len(cols)
	if cols == nil {
		width = len(s.Fields)
	}
	str := string(text) // one copy; every string value is a substring of it
	n := min(strings.Count(str, "\n")+1, (len(str)+1)/max(len(s.Fields), 2))
	vals := make([]Value, 0, n*width)
	rows = make([]Record, 0, n)
	for lineNo := 1; len(str) > 0; lineNo++ {
		line := str
		if nl := strings.IndexByte(str, '\n'); nl >= 0 {
			line, str = str[:nl], str[nl+1:]
		} else {
			str = ""
		}
		line = strings.TrimSuffix(line, "\r") // as bufio.ScanLines does
		if line == "" {
			continue
		}
		if len(vals)+width > cap(vals) {
			// A line past the bound cannot hold len(s.Fields) fields: it is
			// read only for its error.
			vals = make([]Value, 0, width)
		}
		rec := vals[len(vals) : len(vals)+width : len(vals)+width]
		vals = vals[:len(vals)+width]
		field, kept := 0, 0
		for i := 0; ; {
			j := i
			for j < len(line) && line[j] != sep {
				if line[j] == '\\' {
					j++ // the escaped byte belongs to the field
				}
				j++
			}
			if j > len(line) {
				j = len(line)
			}
			// cols ascends, so the next kept column is the only candidate.
			if kept < width && (cols == nil || cols[kept] == field) {
				v, err := ParseValue(s.Fields[field].Kind, unescape(line[i:j]))
				if err != nil {
					return nil, 0, fmt.Errorf("telco: line %d: telco: field %q: %w", lineNo, s.Fields[field].Name, err)
				}
				rec[kept] = v
				kept++
				wire += int64(j-i) + 1
			}
			field++
			if j == len(line) {
				break
			}
			i = j + 1
		}
		if field != len(s.Fields) {
			return nil, 0, fmt.Errorf("telco: line %d: telco: schema %q: line has %d fields, want %d",
				lineNo, s.Name, field, len(s.Fields))
		}
		rows = append(rows, rec)
	}
	return rows, wire, nil
}

// ProjectRows returns the rows restricted to the fields at cols (ascending
// positions) — how full-width in-memory records join a projected scan. A
// nil cols returns rows unchanged.
func ProjectRows(rows []Record, cols []int) []Record {
	if cols == nil {
		return rows
	}
	vals := make([]Value, len(rows)*len(cols))
	out := make([]Record, len(rows))
	for i, r := range rows {
		rec := vals[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
		for k, c := range cols {
			rec[k] = r[c]
		}
		out[i] = rec
	}
	return out
}
