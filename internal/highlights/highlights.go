// Package highlights implements SPATE's highlights module (paper §V-B):
// materialized summaries of the underlying raw data computed for each
// internal node of the temporal index. Summaries behave like an OLAP cube
// whose construction cost is amortized over time — day summaries are built
// from snapshot data, month summaries from day summaries, year summaries
// from month summaries — and support the frequency-threshold highlight
// extraction the paper describes: values whose occurrence frequency falls
// below a per-level threshold θ are "highlights" (interesting rare events),
// reported with their type (categorical) or peaking point (continuous) and
// their duration.
//
// A Summary is flat and pointer-free but for its attribute names and
// categorical values, laid out as its binary encoding is: a sorted
// attribute dictionary, the window's stats per attribute, one categorical
// side table, and sorted cell ids with row counts, each cell a run of
// per-attribute stats in one array. Folder folds snapshot rows into a dense
// accumulator and hands the summary its arrays; Merge folds summaries cell
// id by cell id; DecodeBinary fills the arrays straight from the encoding.
package highlights

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"

	"spate/internal/telco"
)

// AttrRef names one attribute of one telco source table.
type AttrRef struct {
	Table string
	Attr  string
}

func (a AttrRef) String() string { return a.Table + "." + a.Attr }

// Config selects the attributes summarized into highlights — the
// "long-standing queries of users (e.g., the drop-call counters, bandwidth
// statistics)" the paper materializes.
type Config struct {
	Categorical []AttrRef
	Numeric     []AttrRef
	// CellAttrs are the numeric attributes additionally tracked per
	// spatial cell — the materialized per-cell counters a heatmap needs
	// (drop calls, bandwidth). Keeping this set small bounds the cube: a
	// summary costs O(cells x |CellAttrs|), which is the index-space term
	// S_i of the paper's storage objective.
	CellAttrs []AttrRef
	// MaxCatValues caps the tracked distinct values per categorical
	// attribute (default 512); beyond it, new values lump into an overflow
	// bucket so summaries stay bounded.
	MaxCatValues int
}

func (c Config) withDefaults() Config {
	if c.MaxCatValues <= 0 {
		c.MaxCatValues = 512
	}
	return c
}

// Attrs lists the attributes of one source table that AddTable reads
// beyond the timestamp and cell id — what a scan feeding it must
// materialize.
func (c Config) Attrs(table string) []string {
	var out []string
	for _, refs := range [][]AttrRef{c.Categorical, c.Numeric} {
		for _, ref := range refs {
			if ref.Table == table {
				out = append(out, ref.Attr)
			}
		}
	}
	return out
}

// DefaultConfig summarizes the telco vitals driving the paper's example
// explorations: drop calls, call volumes and bandwidth.
func DefaultConfig() Config {
	return Config{
		Categorical: []AttrRef{
			{"CDR", telco.AttrCallType},
			{"CDR", telco.AttrResult},
		},
		Numeric: []AttrRef{
			{"CDR", telco.AttrDuration},
			{"CDR", telco.AttrUpflux},
			{"CDR", telco.AttrDownflux},
			{"NMS", "drop_calls"},
			{"NMS", "call_attempts"},
			{"NMS", "throughput_kbps"},
			{"NMS", "rssi_dbm"},
		},
		CellAttrs: []AttrRef{
			{"CDR", telco.AttrUpflux},
			{"CDR", telco.AttrDownflux},
			{"NMS", "drop_calls"},
			{"NMS", "rssi_dbm"},
		},
	}
}

// overflowValue lumps categorical values beyond MaxCatValues.
const overflowValue = "\x00other"

// Stats are mergeable aggregates of one numeric attribute.
type Stats struct {
	NonNull  int64
	Sum      float64
	SumSq    float64
	Min, Max float64
	PeakTime time.Time // when Max was observed
}

// addFloat is a + b, the one addition every merge of stats makes — in
// Merge and in Restrict. When both operands are NaN, which payload the result
// keeps depends on the operand order the compiler gives the add instruction
// at each inlined site; one out-of-line addition keeps it the same for all.
//
//go:noinline
func addFloat(a, b float64) float64 { return a + b }

// Mean returns the arithmetic mean (0 for empty stats).
func (s *Stats) Mean() float64 {
	if s.NonNull == 0 {
		return 0
	}
	return s.Sum / float64(s.NonNull)
}

// StdDev returns the population standard deviation.
func (s *Stats) StdDev() float64 {
	if s.NonNull == 0 {
		return 0
	}
	m := s.Mean()
	v := s.SumSq/float64(s.NonNull) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// ValStat tracks one categorical value's occurrences and observed lifespan
// (the highlight "duration").
type ValStat struct {
	Count       int64
	First, Last time.Time
}

// Summary is the mergeable highlight cube of one temporal-index node. A
// summary is filled once — by a fold, Merge, Restrict or a decode — and
// read-only from then on; Encode memoizes its bytes and the views Num and
// Cell return alias it on that promise.
type Summary struct {
	Period telco.TimeRange
	Rows   int64

	attrs []AttrRef // the attribute dictionary, sorted; pairs and tables name attributes by their index
	num   []pair    // the window's numeric stats, ascending by attribute
	cat   []table   // the categorical value tables, ascending by attribute
	vals  []value   // the side table every categorical table is a run of, ascending by value within a run
	cells []cell    // ascending by id
	pairs []pair    // the cells' stats: each cell a run, ascending by attribute

	enc atomic.Pointer[encoding] // Encode's bytes and their digest, once computed
}

// stat is a Stats as a summary holds it: pointer-free, its peak time a stamp.
type stat struct {
	n                 int64
	sum, sq, min, max float64
	peak              stamp
}

func (st *stat) stats() Stats {
	return Stats{NonNull: st.n, Sum: st.sum, SumSq: st.sq, Min: st.min, Max: st.max, PeakTime: st.peak.time()}
}

// pair is one attribute's stats.
type pair struct {
	attr int32
	stat
}

// table is one categorical attribute's values: vals[lo:hi].
type table struct{ attr, lo, hi int32 }

// value is one categorical value's ValStat.
type value struct {
	v           string
	count       int64
	first, last stamp
}

// cell is one spatial cell's row count and stats: pairs[lo:hi].
type cell struct {
	id, rows int64
	lo, hi   int32
}

// NewSummary returns an empty summary over the given period.
func NewSummary(period telco.TimeRange) *Summary { return &Summary{Period: period} }

// Num returns the window's numeric stats.
func (s *Summary) Num() Attrs { return Attrs{s.attrs, s.num} }

// Cells returns the number of cells the summary holds.
func (s *Summary) Cells() int { return len(s.cells) }

// Cell returns the i-th cell in ascending id order: its id, its row count
// and its tracked attributes' stats.
func (s *Summary) Cell(i int) (id, rows int64, num Attrs) {
	c := &s.cells[i]
	return c.id, c.rows, Attrs{s.attrs, s.pairs[c.lo:c.hi]}
}

// Values returns the categorical values of ref the summary counts, with
// their stats (nil when it holds no table for ref).
func (s *Summary) Values(ref AttrRef) map[string]ValStat {
	i := slices.IndexFunc(s.cat, func(t table) bool { return s.attrs[t.attr] == ref })
	if i < 0 {
		return nil
	}
	out := make(map[string]ValStat, s.cat[i].hi-s.cat[i].lo)
	for _, v := range s.vals[s.cat[i].lo:s.cat[i].hi] {
		out[v.v] = ValStat{Count: v.count, First: v.first.time(), Last: v.last.time()}
	}
	return out
}

// Attrs is a view of per-attribute stats — a cell's, or a window's —
// ascending by attribute. It aliases its summary.
type Attrs struct {
	dict  []AttrRef
	pairs []pair
}

// Len is the number of attributes the view holds.
func (a Attrs) Len() int { return len(a.pairs) }

// At returns the i-th attribute and its stats.
func (a Attrs) At(i int) (AttrRef, Stats) { return a.dict[a.pairs[i].attr], a.pairs[i].stats() }

// Dict returns the attribute dictionary the view names its attributes by:
// one slice shared by every view of a summary (and of a restriction or a
// selection of it), read-only like the summary. An attribute's position in
// it is the index Sum reads by, so a reader of many views resolves an
// attribute once per dictionary, not once per view.
func (a Attrs) Dict() []AttrRef { return a.dict }

// Sum returns the sum and the non-null count of the attribute at position
// i of the view's dictionary, and whether the view holds that attribute.
func (a Attrs) Sum(i int) (sum float64, nonNull int64, ok bool) {
	for _, p := range a.pairs { // ascending by attribute
		if int(p.attr) >= i {
			if int(p.attr) == i {
				return p.sum, p.n, true
			}
			break
		}
	}
	return 0, 0, false
}

// Only returns the view narrowed to the attributes refs names, in a copy.
func (a Attrs) Only(refs []AttrRef) Attrs {
	out := Attrs{dict: a.dict}
	for _, p := range a.pairs {
		if slices.Contains(refs, a.dict[p.attr]) {
			out.pairs = append(out.pairs, p)
		}
	}
	return out
}

// AddTable folds one snapshot table into the summary: the columns the fold
// reads are loaded into one column batch and go through the batch fold
// every other source of rows uses.
func (s *Summary) AddTable(cfg Config, t *telco.Table) {
	want := append(cfg.Attrs(t.Schema.Name), telco.AttrTS, telco.AttrCellID)
	var cols []int
	for _, name := range want {
		if i := t.Schema.FieldIndex(name); i >= 0 && !slices.Contains(cols, i) {
			cols = append(cols, i)
		}
	}
	slices.Sort(cols)
	var b telco.Batch
	b.SetRows(t.Schema, cols, t.Rows, true)
	f := NewFolder(s, cfg, t.Schema.Project(cols))
	f.Add(&b)
	f.Flush()
}

// Merge combines child summaries into a parent over period — the rollup
// step that builds month highlights from days and year highlights from
// months. Merging is exact: Merge(parts...) equals a direct build over the
// concatenated underlying data. Each key merges the parts' entries in part
// order: the cells in one pass over the parts' sorted cell ids.
func Merge(period telco.TimeRange, parts ...*Summary) *Summary {
	m := mergers.Get().(*merger)
	defer mergers.Put(m)
	return m.merge(&Summary{Period: period}, parts)
}

// Restrict filters the summary to the cells accepted by keep, rebuilding
// the window-level numeric aggregates from the per-cell breakdown (so the
// restricted window stats carry the per-cell tracked attributes).
// Categorical counts are not cell-resolved (bounded-size cube) and carry
// through at window level. A nil keep returns the summary unchanged. Both
// the engine's spatial restriction and the cluster coordinator's post-merge
// restriction share this path.
func (s *Summary) Restrict(keep func(int64) bool) *Summary {
	if keep == nil {
		return s
	}
	m := mergers.Get().(*merger)
	defer mergers.Put(m)
	m.reset(len(s.attrs))
	m.cells, m.pairs = m.cells[:0], m.pairs[:0]
	out := &Summary{Period: s.Period, attrs: s.attrs, cat: s.cat, vals: s.vals}
	// Fold cells in id order: float accumulation order then matches across
	// runs and engines, so restricted summaries compare bit for bit.
	for _, c := range s.cells {
		if keep(c.id) {
			run := s.pairs[c.lo:c.hi]
			m.fold(run, nil)
			out.Rows += c.rows
			m.cells = append(m.cells, cell{c.id, c.rows, int32(len(m.pairs)), int32(len(m.pairs) + len(run))})
			m.pairs = append(m.pairs, run...)
		}
	}
	out.num, out.cells, out.pairs = exact(m.emit(m.num[:0])), exact(m.cells), exact(m.pairs)
	return out
}

// Kind distinguishes highlight shapes.
type Kind int

// Highlight kinds: a rare categorical value, or a numeric peaking point.
const (
	Categorical Kind = iota
	Peak
)

// Highlight is one interesting event summary (paper §V-B): a value whose
// occurrence frequency is below θ, described by its type or peaking point
// and its duration.
type Highlight struct {
	Attr      AttrRef
	Kind      Kind
	Value     string  // rare categorical value (Categorical)
	Count     int64   // occurrences of the value
	Frequency float64 // relative occurrence frequency
	PeakValue float64 // numeric peak (Peak)
	PeakTime  time.Time
	Start     time.Time // highlight duration
	End       time.Time
}

// peakZ is the z-score beyond which a numeric maximum counts as a peaking
// point worth reporting.
const peakZ = 3.0

// Extract computes the highlights of a summary under frequency threshold
// theta: categorical values with relative frequency < theta, and numeric
// attributes whose maximum deviates from the mean by more than 3 standard
// deviations. Results are ordered by attribute then value for determinism.
func (s *Summary) Extract(theta float64) []Highlight {
	var out []Highlight
	for _, t := range s.cat {
		vals := s.vals[t.lo:t.hi]
		var total int64
		for _, vs := range vals {
			total += vs.count
		}
		if total == 0 {
			continue
		}
		for _, vs := range vals {
			if vs.v == overflowValue {
				continue
			}
			freq := float64(vs.count) / float64(total)
			if freq < theta {
				out = append(out, Highlight{
					Attr: s.attrs[t.attr], Kind: Categorical, Value: vs.v,
					Count: vs.count, Frequency: freq,
					Start: vs.first.time(), End: vs.last.time(),
				})
			}
		}
	}
	for _, p := range s.num {
		st := p.stats()
		if st.NonNull < 2 {
			continue
		}
		sd := st.StdDev()
		if sd == 0 {
			continue
		}
		if (st.Max-st.Mean())/sd > peakZ {
			out = append(out, Highlight{
				Attr: s.attrs[p.attr], Kind: Peak,
				PeakValue: st.Max, PeakTime: st.PeakTime,
				Start: s.Period.From, End: s.Period.To,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attr != out[j].Attr {
			return out[i].Attr.String() < out[j].Attr.String()
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// SizeHint is the summary's in-memory footprint in bytes: what its arrays
// and its memoized encoding hold to capacity, and its attribute names and
// categorical values as the allocator rounds strings up (a cost every
// array's capacity already carries). It is what storage accounting counts
// (index space S_i in the paper's O1 = S/(Sc+Si)), and what a cache of
// summaries budgets by.
func (s *Summary) SizeHint() int64 {
	n := int64(unsafe.Sizeof(*s)) + capBytes(s.attrs) + capBytes(s.num) + capBytes(s.cat) +
		capBytes(s.vals) + capBytes(s.cells) + capBytes(s.pairs)
	if e := s.enc.Load(); e != nil {
		n += capBytes(e.b)
	}
	str := func(b int) int64 { return int64(b + b/8 + 16) }
	for _, ref := range s.attrs {
		n += str(len(ref.Table)) + str(len(ref.Attr))
	}
	for _, v := range s.vals {
		n += str(len(v.v))
	}
	return n
}

// capBytes is what s holds to capacity.
func capBytes[T any](s []T) int64 { return int64(cap(s)) * int64(unsafe.Sizeof(*new(T))) }
