package scanspec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Partials cross the cluster RPC in a binary section of the explore frame:
//
//	uvarint n, n × partial
//	partial   value Group, uvarint k, k × cell
//	cell      byte Seen (0 or 1), varint Count, varint ISum, value Min, value Max
//	value     byte kind (0 null, 1 int, 2 float, 3 str, 4 time), uvarint len, Val
//
// Key does not travel: a partial's Key is its group value's wire form, which
// is Group.Val (NewPartial), and ReadPartials restores it from there. Keys
// are strictly increasing, as Merge needs them.

// wireKinds numbers WireValue kinds on the wire; the index is the kind byte.
var wireKinds = [...]string{"", "int", "float", "str", "time"}

// Smallest encodings, which bound every count ReadPartials reads by the
// bytes left.
const (
	minWireValue = 2                  // kind, length
	minCell      = 3 + 2*minWireValue // Seen, Count, ISum, Min, Max
	minPartial   = minWireValue + 1   // Group, cell count
)

// AppendPartials appends the binary form of ps to b.
func AppendPartials(b []byte, ps []Partial) []byte {
	b = binary.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = appendWireValue(b, p.Group)
		b = binary.AppendUvarint(b, uint64(len(p.Cells)))
		for _, c := range p.Cells {
			seen := byte(0)
			if c.Seen {
				seen = 1
			}
			b = append(b, seen)
			b = binary.AppendVarint(b, c.Count)
			b = binary.AppendVarint(b, c.ISum)
			b = appendWireValue(b, c.Min)
			b = appendWireValue(b, c.Max)
		}
	}
	return b
}

// appendWireValue writes v. A kind outside wireKinds travels as null, which
// is what its Value is.
func appendWireValue(b []byte, v WireValue) []byte {
	kind := 0
	for k, name := range wireKinds {
		if name == v.Kind {
			kind = k
		}
	}
	b = append(b, byte(kind))
	return append(binary.AppendUvarint(b, uint64(len(v.Val))), v.Val...)
}

// ReadPartials decodes what AppendPartials wrote, all of data and nothing
// else. Every count is checked against the bytes left before anything is
// sized by it, and an unknown value kind or Seen byte fails the read, as do
// keys that are not strictly increasing: Merge relies on that order.
func ReadPartials(data []byte) ([]Partial, error) {
	r := partialsReader{b: data}
	ps := make([]Partial, r.count(minPartial))
	for i := range ps {
		p := &ps[i]
		p.Group = r.value()
		p.Key = p.Group.Val
		if i > 0 && r.err == nil && p.Key <= ps[i-1].Key {
			r.fail(fmt.Errorf("scanspec: partials: key %q after %q", p.Key, ps[i-1].Key))
		}
		p.Cells = make([]Cell, r.count(minCell))
		for j := range p.Cells {
			c := &p.Cells[j]
			switch r.byte() {
			case 0:
			case 1:
				c.Seen = true
			default:
				r.fail(errors.New("scanspec: partials: bad seen flag"))
			}
			c.Count, c.ISum = r.varint(), r.varint()
			c.Min, c.Max = r.value(), r.value()
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail(fmt.Errorf("scanspec: partials: %d trailing bytes", len(r.b)))
	}
	if r.err != nil {
		return nil, r.err
	}
	return ps, nil
}

var errPartialsTruncated = errors.New("scanspec: partials: truncated")

// partialsReader reads the partials section; the first failure sticks, and
// every read after it returns a zero value.
type partialsReader struct {
	b   []byte
	err error
}

func (r *partialsReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *partialsReader) byte() byte {
	if r.err != nil || len(r.b) == 0 {
		r.fail(errPartialsTruncated)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *partialsReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errPartialsTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a count of entries that take at least min bytes each.
func (r *partialsReader) count(min int) int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || v > uint64(len(r.b[n:])/min) {
		r.fail(errPartialsTruncated)
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

func (r *partialsReader) value() WireValue {
	kind := r.byte()
	n := r.count(1)
	if r.err != nil {
		return WireValue{}
	}
	if int(kind) >= len(wireKinds) {
		r.fail(fmt.Errorf("scanspec: partials: unknown value kind %d", kind))
		return WireValue{}
	}
	v := WireValue{Kind: wireKinds[kind], Val: string(r.b[:n])}
	r.b = r.b[n:]
	return v
}
