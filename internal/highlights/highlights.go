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
// Every summary but a decoding is built in one dense accumulator, the cube:
// Folder folds snapshot rows into it, Merge merges child summaries into it
// and MergeEncoded merges their encodings into it, and one writer puts it
// into the map-shaped Summary.
package highlights

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

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

// merge folds another Stats value into s (exact, commutative).
func (s *Stats) merge(o *Stats) {
	if o.NonNull == 0 {
		return
	}
	if s.NonNull == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if s.NonNull == 0 || o.Max > s.Max {
		s.Max = o.Max
		s.PeakTime = o.PeakTime
	}
	s.NonNull += o.NonNull
	s.Sum = addFloat(s.Sum, o.Sum)
	s.SumSq = addFloat(s.SumSq, o.SumSq)
}

// addFloat is a + b, the one addition every merge of Stats makes — in the
// cube and in Restrict. When both operands are NaN, which payload the result
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

// CellStats aggregates per spatial cell.
type CellStats struct {
	Rows int64
	Num  map[AttrRef]*Stats
}

// Summary is the mergeable highlight cube of one temporal-index node. A
// summary is filled once — by a fold, Merge or a decode — and read-only
// from then on; Encode memoizes its bytes on that promise.
type Summary struct {
	Period telco.TimeRange
	Rows   int64
	Num    map[AttrRef]*Stats
	Cat    map[AttrRef]map[string]*ValStat
	Cells  map[int64]*CellStats

	enc atomic.Pointer[[]byte] // Encode's bytes, once computed
}

// NewSummary returns an empty summary over the given period.
func NewSummary(period telco.TimeRange) *Summary {
	return &Summary{
		Period: period,
		Num:    make(map[AttrRef]*Stats),
		Cat:    make(map[AttrRef]map[string]*ValStat),
		Cells:  make(map[int64]*CellStats),
	}
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
// concatenated underlying data. The parts merge, in order, into the cube
// every summary is built in, and the result is written from it once.
func Merge(period telco.TimeRange, parts ...*Summary) *Summary {
	var c cube
	for _, p := range parts {
		if p != nil {
			c.merge(p)
		}
	}
	return c.write(&Summary{Period: period})
}

// Restrict filters the summary to the cells accepted by keep, rebuilding
// the window-level numeric aggregates from the per-cell breakdown (so the
// restricted Num carries the per-cell tracked attributes). Categorical
// counts are not cell-resolved (bounded-size cube) and carry through at
// window level. A nil keep returns the summary unchanged. Both the engine's
// spatial restriction and the cluster coordinator's post-merge restriction
// share this path.
func (s *Summary) Restrict(keep func(int64) bool) *Summary {
	if keep == nil {
		return s
	}
	// Fold cells in id order: float accumulation order then matches across
	// runs and engines, so restricted summaries compare bit for bit.
	ids := make([]int64, 0, len(s.Cells))
	for id := range s.Cells {
		if keep(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	out := &Summary{
		Period: s.Period,
		Num:    make(map[AttrRef]*Stats, len(s.Num)),
		Cat:    s.Cat,
		Cells:  make(map[int64]*CellStats, len(ids)),
	}
	cells := make([]CellStats, len(ids))
	for i, id := range ids {
		cs := s.Cells[id]
		out.Rows += cs.Rows
		cells[i] = CellStats{Rows: cs.Rows, Num: cs.Num}
		out.Cells[id] = &cells[i]
		for ref, st := range cs.Num {
			agg := out.Num[ref]
			if agg == nil {
				agg = &Stats{}
				out.Num[ref] = agg
			}
			agg.merge(st)
		}
	}
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
	for ref, vals := range s.Cat {
		var total int64
		for _, vs := range vals {
			total += vs.Count
		}
		if total == 0 {
			continue
		}
		for v, vs := range vals {
			if v == overflowValue {
				continue
			}
			freq := float64(vs.Count) / float64(total)
			if freq < theta {
				out = append(out, Highlight{
					Attr: ref, Kind: Categorical, Value: v,
					Count: vs.Count, Frequency: freq,
					Start: vs.First, End: vs.Last,
				})
			}
		}
	}
	for ref, st := range s.Num {
		if st.NonNull < 2 {
			continue
		}
		sd := st.StdDev()
		if sd == 0 {
			continue
		}
		if (st.Max-st.Mean())/sd > peakZ {
			out = append(out, Highlight{
				Attr: ref, Kind: Peak,
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

// SizeHint estimates the summary's in-memory footprint in bytes, used by
// storage accounting (index space S_i in the paper's O1 = S/(Sc+Si)).
func (s *Summary) SizeHint() int64 {
	var n int64 = 64
	n += int64(len(s.Num)) * 96
	for _, vals := range s.Cat {
		n += int64(len(vals)) * 80
	}
	for _, cs := range s.Cells {
		n += 32 + int64(len(cs.Num))*96
	}
	return n
}
