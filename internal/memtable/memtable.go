// Package memtable holds the unsealed rows of SPATE's streaming ingest
// path: records that have been appended (and logged to the WAL) but whose
// 30-minute epoch has not yet sealed into compressed SPSG segments. It is
// the structure that closes the paper's ingestion blind spot — a row
// becomes explorable the moment it lands here, epochs before any seal.
//
// The table is lock-split: a top-level RWMutex guards only the
// epoch/table topology, while every (epoch, table) bucket carries its own
// lock, so appends to the current epoch, scans over older unsealed epochs
// and a seal draining one epoch proceed without serializing on one lock.
// Within a bucket rows stay in arrival order, with an index of
// time-ordered runs on top, and merging the runs streams the bucket in the
// same stable timestamp order the sealed leaf encoder produces — which is
// what makes pre-seal answers identical to post-seal answers for the same
// rows. Runs are not necessarily few: a feed that writes an epoch's rows in
// random time order leaves hundreds (635 runs over one epoch's 1 509 NMS
// rows of the generated trace), and the merge scans every run for each row
// it emits, so reading such a bucket is quadratic in its rows.
package memtable

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"spate/internal/highlights"
	"spate/internal/obs"
	"spate/internal/snapshot"
	"spate/internal/telco"
)

// run is one maximal ascending-timestamp range of a bucket's arrival
// order: positions [start, end).
type run struct{ start, end int }

// bucket holds one table's unsealed rows of one epoch.
type bucket struct {
	mu     sync.RWMutex
	schema *telco.Schema
	rows   []telco.Record // arrival order
	ts     []int64        // per-row unix seconds, aligned with rows
	runs   []run
	bytes  int64
	minTS  int64
	maxTS  int64
}

// Memtable is the in-memory table of unsealed rows, keyed by epoch and
// table name. All methods are safe for concurrent use.
type Memtable struct {
	mu  sync.RWMutex
	eps map[telco.Epoch]map[string]*bucket

	rows  atomic.Int64
	bytes atomic.Int64

	inserts *obs.Counter
}

// New returns an empty memtable reporting into reg (obs.Default when nil).
func New(reg *obs.Registry) *Memtable {
	if reg == nil {
		reg = obs.Default
	}
	m := &Memtable{eps: make(map[telco.Epoch]map[string]*bucket)}
	m.inserts = reg.Counter("spate_memtable_inserts_total", "Rows inserted into the streaming memtable.")
	reg.GaugeFunc("spate_memtable_rows", "Unsealed rows currently buffered.", func() float64 {
		return float64(m.rows.Load())
	})
	reg.GaugeFunc("spate_memtable_bytes", "Approximate bytes of unsealed rows currently buffered.", func() float64 {
		return float64(m.bytes.Load())
	})
	reg.GaugeFunc("spate_memtable_epochs", "Unsealed epochs currently buffered.", func() float64 {
		m.mu.RLock()
		defer m.mu.RUnlock()
		return float64(len(m.eps))
	})
	return m
}

// Size approximates one record's memory footprint — the Value headers
// plus string payloads — the unit the streamer's backpressure accounting
// and the memtable byte gauge both count in.
func Size(r telco.Record) int64 {
	n := int64(len(r)) * 24
	for _, v := range r {
		n += int64(len(v.Str()))
	}
	return n
}

// Insert appends one record of the named table. The record must carry a
// non-null timestamp — it determines the row's epoch, returned to the
// caller. Rows within a bucket keep arrival order.
func (m *Memtable) Insert(table string, rec telco.Record) (telco.Epoch, error) {
	schema := telco.SchemaByName(table)
	if schema == nil {
		return 0, fmt.Errorf("memtable: unknown schema %q", table)
	}
	tsIdx := schema.FieldIndex(telco.AttrTS)
	if tsIdx < 0 || tsIdx >= len(rec) || rec[tsIdx].IsNull() {
		return 0, fmt.Errorf("memtable: %s row lacks a timestamp", table)
	}
	if len(rec) != len(schema.Fields) {
		return 0, fmt.Errorf("memtable: %s row has %d fields, want %d", table, len(rec), len(schema.Fields))
	}
	at := rec[tsIdx].Time()
	e := telco.EpochOf(at)
	b := m.bucketFor(e, table, schema)
	ts := at.Unix()
	sz := Size(rec)
	b.mu.Lock()
	n := len(b.rows)
	b.rows = append(b.rows, rec)
	b.ts = append(b.ts, ts)
	if n == 0 {
		b.runs = append(b.runs, run{0, 1})
		b.minTS, b.maxTS = ts, ts
	} else {
		if last := &b.runs[len(b.runs)-1]; b.ts[last.end-1] <= ts {
			last.end++
		} else {
			b.runs = append(b.runs, run{n, n + 1})
		}
		if ts < b.minTS {
			b.minTS = ts
		}
		if ts > b.maxTS {
			b.maxTS = ts
		}
	}
	b.bytes += sz
	b.mu.Unlock()
	m.rows.Add(1)
	m.bytes.Add(sz)
	m.inserts.Inc()
	return e, nil
}

// bucketFor returns (creating if needed) the bucket of one epoch + table.
func (m *Memtable) bucketFor(e telco.Epoch, table string, schema *telco.Schema) *bucket {
	m.mu.RLock()
	tabs := m.eps[e]
	var b *bucket
	if tabs != nil {
		b = tabs[table]
	}
	m.mu.RUnlock()
	if b != nil {
		return b
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tabs = m.eps[e]
	if tabs == nil {
		tabs = make(map[string]*bucket)
		m.eps[e] = tabs
	}
	b = tabs[table]
	if b == nil {
		b = &bucket{schema: schema}
		tabs[table] = b
	}
	return b
}

// Rows returns the number of buffered rows.
func (m *Memtable) Rows() int64 { return m.rows.Load() }

// Bytes returns the approximate buffered byte footprint.
func (m *Memtable) Bytes() int64 { return m.bytes.Load() }

// Epochs lists the buffered epochs strictly after `after`, ascending.
func (m *Memtable) Epochs(after telco.Epoch) []telco.Epoch {
	m.mu.RLock()
	out := make([]telco.Epoch, 0, len(m.eps))
	for e := range m.eps {
		if e > after {
			out = append(out, e)
		}
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MinEpoch returns the oldest buffered epoch, and false when empty.
func (m *Memtable) MinEpoch() (telco.Epoch, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	first := true
	var min telco.Epoch
	for e := range m.eps {
		if first || e < min {
			min, first = e, false
		}
	}
	return min, !first
}

// Overlaps reports whether any buffered epoch after `after` intersects w.
func (m *Memtable) Overlaps(w telco.TimeRange, after telco.Epoch) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for e := range m.eps {
		if e > after && e.Start().Before(w.To) && w.From.Before(e.End()) {
			return true
		}
	}
	return false
}

// orderedRows copies a bucket's rows out in stable timestamp order by
// merging its ascending runs (ties resolve to the earlier-created run,
// i.e. earlier arrival — the same order a stable sort by timestamp
// yields, which is exactly how the sealed leaf encoder clusters rows).
// Rows outside w are skipped; the zero range keeps everything.
func (b *bucket) orderedRows(w *telco.TimeRange, dst *telco.Table) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if w != nil && (b.maxTS < w.From.Unix() || b.minTS >= w.To.Unix()) && len(b.rows) > 0 {
		return
	}
	heads := make([]int, len(b.runs))
	for i, r := range b.runs {
		heads[i] = r.start
	}
	for {
		best := -1
		for i, r := range b.runs {
			if heads[i] >= r.end {
				continue
			}
			if best < 0 || b.ts[heads[i]] < b.ts[heads[best]] {
				best = i
			}
		}
		if best < 0 {
			return
		}
		pos := heads[best]
		heads[best]++
		if w != nil {
			at := b.ts[pos]
			if at < w.From.Unix() || at >= w.To.Unix() {
				continue
			}
		}
		dst.Append(b.rows[pos])
	}
}

// tableNames lists an epoch's buffered tables in sorted order. Caller
// must not hold m.mu.
func (m *Memtable) epochTables(e telco.Epoch) (names []string, tabs map[string]*bucket) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	src := m.eps[e]
	if src == nil {
		return nil, nil
	}
	tabs = make(map[string]*bucket, len(src))
	for name, b := range src {
		names = append(names, name)
		tabs[name] = b
	}
	sort.Strings(names)
	return names, tabs
}

// Scan streams the buffered rows of every epoch after `after` overlapping
// w through fn, one timestamp-ordered window-filtered table per
// (epoch, table) in epoch then table-name order — mirroring the call
// sequence a sealed-leaf scan produces. Empty tables are skipped. tables
// restricts the table selection (nil selects all).
func (m *Memtable) Scan(w telco.TimeRange, tables []string, after telco.Epoch, fn func(name string, tab *telco.Table) error) error {
	want := func(name string) bool {
		if len(tables) == 0 {
			return true
		}
		for _, t := range tables {
			if t == name {
				return true
			}
		}
		return false
	}
	for _, e := range m.Epochs(after) {
		if !e.Start().Before(w.To) || !w.From.Before(e.End()) {
			continue
		}
		names, tabs := m.epochTables(e)
		for _, name := range names {
			if !want(name) {
				continue
			}
			b := tabs[name]
			out := telco.NewTable(b.schema)
			b.orderedRows(&w, out)
			if out.Len() == 0 {
				continue
			}
			if err := fn(name, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// Parts builds one highlight summary per buffered epoch after `after`
// overlapping w, in chronological order — the unsealed counterpart of the
// sealed leaves' summary parts. Each part covers its epoch's whole period
// and folds tables in sorted name order over timestamp-ordered rows,
// reproducing the fold the ingest path runs at seal time, so the part an
// epoch contributes before sealing equals the leaf summary it contributes
// after.
func (m *Memtable) Parts(w telco.TimeRange, after telco.Epoch, cfg highlights.Config) []*highlights.Summary {
	var parts []*highlights.Summary
	for _, e := range m.Epochs(after) {
		if !e.Start().Before(w.To) || !w.From.Before(e.End()) {
			continue
		}
		s := highlights.NewSummary(telco.TimeRange{From: e.Start(), To: e.End()})
		names, tabs := m.epochTables(e)
		for _, name := range names {
			b := tabs[name]
			tab := telco.NewTable(b.schema)
			b.orderedRows(nil, tab)
			s.AddTable(cfg, tab)
		}
		if s.Rows > 0 {
			parts = append(parts, s)
		}
	}
	return parts
}

// SnapshotEpoch copies one epoch's buckets out as the snapshot the seal
// path ingests, rows in arrival order per table — the same snapshot a
// batch ingest of the stream would have built, so the sealed segments
// come out bit-for-bit identical. The buckets stay in place (the sealer
// drops them with DropEpoch only after the sealed leaf is visible, so
// queries never find the rows in neither structure). It returns nil when
// the epoch holds no rows.
func (m *Memtable) SnapshotEpoch(e telco.Epoch) *snapshot.Snapshot {
	names, tabs := m.epochTables(e)
	if len(names) == 0 {
		return nil
	}
	sn := snapshot.New(e)
	rows := 0
	for _, name := range names {
		b := tabs[name]
		b.mu.RLock()
		t := telco.NewTable(b.schema)
		t.Rows = append(make([]telco.Record, 0, len(b.rows)), b.rows...)
		b.mu.RUnlock()
		rows += t.Len()
		sn.Add(t)
	}
	if rows == 0 {
		return nil
	}
	return sn
}

// DropEpoch removes one epoch's buckets, returning how many rows and
// approximate bytes were released.
func (m *Memtable) DropEpoch(e telco.Epoch) (rows, bytes int64) {
	m.mu.Lock()
	tabs := m.eps[e]
	delete(m.eps, e)
	m.mu.Unlock()
	for _, b := range tabs {
		b.mu.Lock()
		rows += int64(len(b.rows))
		bytes += b.bytes
		b.rows, b.ts, b.runs = nil, nil, nil
		b.bytes = 0
		b.mu.Unlock()
	}
	m.rows.Add(-rows)
	m.bytes.Add(-bytes)
	return rows, bytes
}
