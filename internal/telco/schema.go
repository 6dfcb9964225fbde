package telco

import (
	"fmt"
	"strings"
)

// Field describes one attribute of a telco record.
type Field struct {
	Name string
	Kind Kind
	// Optional marks attributes that are frequently blank in real traces.
	// Such attributes drive the near-zero entropy columns of Figure 4.
	Optional bool
}

// Schema is an ordered set of fields with unique names.
type Schema struct {
	Name   string
	Fields []Field
	byName map[string]int
}

// NewSchema builds a schema and validates field-name uniqueness.
func NewSchema(name string, fields []Field) (*Schema, error) {
	s := &Schema{Name: name, Fields: fields, byName: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("telco: schema %q: field %d has empty name", name, i)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("telco: schema %q: duplicate field %q", name, f.Name)
		}
		s.byName[f.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for package-level schemas.
func MustSchema(name string, fields []Field) *Schema {
	s, err := NewSchema(name, fields)
	if err != nil {
		panic(err)
	}
	return s
}

// NumFields returns the number of attributes.
func (s *Schema) NumFields() int { return len(s.Fields) }

// FieldIndex returns the position of the named field, or -1.
func (s *Schema) FieldIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Project returns the narrow schema holding only the fields at cols
// (ascending schema positions) under the same name — the layout of a scan
// that materializes just those columns. A nil cols, or one naming every
// field, returns s itself.
func (s *Schema) Project(cols []int) *Schema {
	if cols == nil || len(cols) == len(s.Fields) {
		return s
	}
	fields := make([]Field, len(cols))
	for i, c := range cols {
		fields[i] = s.Fields[c]
	}
	return MustSchema(s.Name, fields)
}

// Field returns the field at position i.
func (s *Schema) Field(i int) Field { return s.Fields[i] }

// FieldNames returns the attribute names in order.
func (s *Schema) FieldNames() []string {
	names := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		names[i] = f.Name
	}
	return names
}

// String renders the schema as name(field:kind, ...), truncated for wide
// schemas such as the ~200-attribute CDR.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		if i == 8 && len(s.Fields) > 10 {
			fmt.Fprintf(&b, "... %d more", len(s.Fields)-i)
			break
		}
		fmt.Fprintf(&b, "%s:%s", f.Name, f.Kind)
	}
	b.WriteByte(')')
	return b.String()
}
