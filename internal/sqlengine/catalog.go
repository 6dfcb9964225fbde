package sqlengine

import (
	"context"
	"fmt"

	"spate/internal/scanspec"
	"spate/internal/telco"
)

// ScanHint carries predicates the executor pushed down to storage: SPATE
// and SHAHED prune snapshots through their temporal index, RAW filters the
// rows of its text files by the window.
type ScanHint struct {
	// Window is the table's ts window, derived once from the WHERE clause's
	// timestamp conjuncts (nil when none bounds ts): every row it leaves
	// out fails the WHERE clause, and a side no conjunct bounds is open.
	// It bounds timestamped rows only: a row without one is not its to drop.
	Window *scanspec.TimeWindow
	// Spec, when non-nil, is the compiled pushdown spec for the scan: the
	// columns the engine will read and the WHERE conjuncts storage may
	// pre-apply. It is advisory — the engine re-evaluates the full WHERE
	// clause — so providers may ignore it, apply only the predicates, or
	// hand back narrow rows holding just a superset of Spec.Referenced().
	Spec *scanspec.Spec
}

// Provider streams the rows of one table, in batches. Each batch carries
// the layout of its rows as its Schema: the table's full schema, or — when
// the provider honored the hint's projection — a telco.Schema.Project of
// it, which the engine then binds the statement's column references to.
// Every batch of one scan has the same layout. Batches and their rows are
// read-only to the engine and may be retained by it. Scan honors ctx: a
// canceled context stops the stream with ctx.Err() (SPATE prunes between
// snapshot decompressions; in-memory providers check between rows).
type Provider interface {
	Schema() *telco.Schema
	Scan(ctx context.Context, hint ScanHint, fn func(*telco.Table) error) error
}

// Aggregator is implemented by providers whose storage layer can fold a
// Spec's simple aggregates chunk-side and return partial aggregates instead
// of rows. Unlike ScanHint.Spec, the spec here is authoritative: the
// provider must apply Window, RequireTS and every predicate exactly as the
// engine's row path would, because the engine renders the partials straight
// into the result set.
type Aggregator interface {
	Aggregate(ctx context.Context, hint ScanHint, spec *scanspec.Spec) ([]scanspec.Partial, error)
}

// Catalog resolves table names.
type Catalog interface {
	Table(name string) (Provider, error)
}

// MemCatalog is an in-memory catalog over materialized tables; the unit-
// test harness and small tools use it.
type MemCatalog map[string]*telco.Table

// Table implements Catalog.
func (m MemCatalog) Table(name string) (Provider, error) {
	t, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", name)
	}
	return memProvider{t}, nil
}

type memProvider struct{ t *telco.Table }

func (p memProvider) Schema() *telco.Schema { return p.t.Schema }

func (p memProvider) Scan(ctx context.Context, hint ScanHint, fn func(*telco.Table) error) error {
	tsIdx := p.t.Schema.FieldIndex(telco.AttrTS)
	out := telco.NewTable(p.t.Schema)
	for _, r := range p.t.Rows {
		if err := ctx.Err(); err != nil {
			return err
		}
		if tsIdx >= 0 && !r[tsIdx].IsNull() && !hint.Window.Contains(r[tsIdx].Time().Unix()) {
			continue
		}
		out.Rows = append(out.Rows, r)
	}
	return fn(out)
}
