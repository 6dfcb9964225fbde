package harness

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
)

// Digest is what the driver keeps of a response body to compare with the
// oracle once the timed window is over: small enough to hold for every op,
// cheap enough to compute between two requests.
type Digest struct {
	Rows  int64  // explore "rows", or the number of SQL result rows
	Up    int64  // T1/T2: sum of column 0
	Down  int64  // T1/T2: sum of column 1
	Cells string // T3: canonical "cell:drops:attempts;" list; T4: callers
}

var rowsKey = []byte(`"rows":`)

// DigestBody reduces the body of a 200 response of the given class.
func DigestBody(class string, body []byte) (Digest, error) {
	var d Digest
	i := bytes.Index(body, rowsKey)
	if i < 0 {
		return d, fmt.Errorf("no \"rows\" in response")
	}
	rest := body[i+len(rowsKey):]
	if !IsSQL(class) {
		j := 0
		for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
			j++
		}
		n, err := strconv.ParseInt(string(rest[:j]), 10, 64)
		if err != nil {
			return d, fmt.Errorf("explore rows: %w", err)
		}
		d.Rows = n
		return d, nil
	}
	if class == ClassFullRow {
		// 200 columns a row: counting row separators is all the check needs.
		if !bytes.HasPrefix(rest, []byte("[]")) {
			d.Rows = int64(bytes.Count(rest, []byte(`"],["`))) + 1
		}
		return d, nil
	}
	var sb []byte
	err := eachRow(rest, func(row []string) error {
		d.Rows++
		switch class {
		case ClassT1, ClassT2, ClassT2Sel:
			if len(row) != 2 {
				return fmt.Errorf("flux row has %d columns", len(row))
			}
			up, err := parseNum(row[0])
			if err != nil {
				return err
			}
			down, err := parseNum(row[1])
			if err != nil {
				return err
			}
			d.Up += up
			d.Down += down
		case ClassT3:
			if len(row) != 3 {
				return fmt.Errorf("aggregate row has %d columns", len(row))
			}
			sb = append(sb, row[0]...)
			sb = append(sb, ':')
			sb = append(sb, row[1]...)
			sb = append(sb, ':')
			sb = append(sb, row[2]...)
			sb = append(sb, ';')
		case ClassT4:
			sb = append(sb, row[0]...)
			sb = append(sb, ';')
		}
		return nil
	})
	d.Cells = string(sb)
	return d, err
}

func parseNum(s string) (int64, error) {
	if s == "" {
		return 0, nil // NULL
	}
	return strconv.ParseInt(s, 10, 64)
}

// eachRow walks a JSON array of arrays of plain strings — the "rows" value
// of /api/sql — calling fn with each inner array. The values the benchmark's
// queries return (numbers, phone numbers) never need JSON escapes.
func eachRow(b []byte, fn func([]string) error) error {
	if len(b) == 0 || b[0] != '[' {
		return fmt.Errorf("rows is not an array")
	}
	b = b[1:]
	var row []string
	for {
		switch {
		case len(b) == 0:
			return fmt.Errorf("rows array is cut short")
		case b[0] == ']':
			return nil
		case b[0] == ',':
			b = b[1:]
		case b[0] == '[':
			row = row[:0]
			b = b[1:]
			for len(b) > 0 && b[0] != ']' {
				if b[0] == ',' {
					b = b[1:]
					continue
				}
				if b[0] != '"' {
					return fmt.Errorf("unexpected %q in row", b[0])
				}
				end := bytes.IndexByte(b[1:], '"')
				if end < 0 {
					return fmt.Errorf("string is cut short")
				}
				row = append(row, string(b[1:1+end]))
				b = b[end+2:]
			}
			if len(b) == 0 {
				return fmt.Errorf("row is cut short")
			}
			b = b[1:]
			if err := fn(row); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected %q in rows", b[0])
		}
	}
}

// Expect computes the digest the oracle predicts for op. ok is false for
// classes the oracle only bounds (boxed explorations: at most the box-less
// row count).
func (o *Oracle) Expect(op Op) (d Digest, exact bool) {
	switch op.Class {
	case ClassExplore, ClassExploreBox:
		// Exploration aggregates are kept per snapshot: every 30-minute
		// epoch the window touches counts in full.
		from := op.From.Truncate(EpochLen)
		to := op.To.Add(EpochLen - 1).Truncate(EpochLen)
		c, n := o.CountRows(from, to)
		d.Rows = c + n
		return d, op.Class == ClassExplore
	case ClassT1, ClassT2:
		f := o.CDRFlux(op.From, op.To, -1)
		return Digest{Rows: f.Rows, Up: f.Up, Down: f.Down}, true
	case ClassT2Sel:
		f := o.CDRFlux(op.From, op.To, SelDuration)
		return Digest{Rows: f.Rows, Up: f.Up, Down: f.Down}, true
	case ClassFullRow:
		f := o.CDRFlux(op.From, op.To, -1)
		return Digest{Rows: f.Rows}, true
	case ClassT3:
		m := o.NMSByCell(op.From, op.To)
		return Digest{Rows: int64(len(m)), Cells: cellsKey(m)}, true
	case ClassT4:
		m := o.Movers(op.From, op.To)
		var sb []byte
		for _, c := range m {
			sb = append(sb, c...)
			sb = append(sb, ';')
		}
		return Digest{Rows: int64(len(m)), Cells: string(sb)}, true
	}
	return d, false
}

func cellsKey(m map[int64]CellSums) string {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var sb []byte
	for _, id := range ids {
		s := m[id]
		sb = strconv.AppendInt(sb, id, 10)
		sb = append(sb, ':')
		sb = strconv.AppendInt(sb, s.Drops, 10)
		sb = append(sb, ':')
		sb = strconv.AppendInt(sb, s.Attempts, 10)
		sb = append(sb, ';')
	}
	return string(sb)
}

// Verify compares a response digest with the oracle's. It returns "" when
// they agree and a one-line description of the difference otherwise.
func (o *Oracle) Verify(op Op, got Digest) string {
	want, exact := o.Expect(op)
	if !exact {
		if got.Rows > want.Rows {
			return fmt.Sprintf("%s: rows %d exceed the box-less %d", op.Key(), got.Rows, want.Rows)
		}
		return ""
	}
	if got != want {
		return fmt.Sprintf("%s: got rows=%d up=%d down=%d cells=%.40q, oracle rows=%d up=%d down=%d cells=%.40q",
			op.Key(), got.Rows, got.Up, got.Down, got.Cells, want.Rows, want.Up, want.Down, want.Cells)
	}
	return ""
}
