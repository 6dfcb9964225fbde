package scanspec

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"spate/internal/telco"
)

func TestPredEval(t *testing.T) {
	cases := []struct {
		p    Pred
		v    telco.Value
		want bool
	}{
		{Pred{"d", "=", "int", "5"}, telco.Int(5), true},
		{Pred{"d", "=", "int", "5"}, telco.Int(6), false},
		{Pred{"d", "!=", "int", "5"}, telco.Int(6), true},
		{Pred{"d", "<", "int", "5"}, telco.Int(4), true},
		{Pred{"d", "<=", "int", "5"}, telco.Int(5), true},
		{Pred{"d", ">", "int", "5"}, telco.Int(5), false},
		{Pred{"d", ">=", "int", "5"}, telco.Int(5), true},
		{Pred{"s", "=", "str", "DATA"}, telco.String("DATA"), true},
		{Pred{"s", "!=", "str", "DATA"}, telco.String("VOICE"), true},
		{Pred{"f", ">", "float", "1.5"}, telco.Float(2), true},
		// SQL three-valued logic: a null row value never satisfies.
		{Pred{"d", "=", "int", "5"}, telco.Null, false},
		{Pred{"d", "!=", "int", "5"}, telco.Null, false},
		// Unparseable literal evaluates to unknown, filtering the row.
		{Pred{"d", "=", "int", "x"}, telco.Int(5), false},
	}
	for _, c := range cases {
		if got := c.p.Eval(c.v); got != c.want {
			t.Errorf("%s over %s = %v, want %v", c.p, c.v.Format(), got, c.want)
		}
	}
}

// TestZoneLogicConsistency cross-checks ZonePrune and ZoneAllMatch against
// brute-force evaluation over every value in the zone: prune means no
// value matches, all-match means every value matches, and the two are
// never both true for a non-empty zone.
func TestZoneLogicConsistency(t *testing.T) {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	for _, op := range ops {
		for lit := int64(-1); lit <= 6; lit++ {
			p := Pred{Col: "c", Op: op, Kind: "int", Val: telco.Int(lit).Format()}
			for min := int64(0); min <= 4; min++ {
				for max := min; max <= 4; max++ {
					any, all := false, true
					for v := min; v <= max; v++ {
						if p.Eval(telco.Int(v)) {
							any = true
						} else {
							all = false
						}
					}
					if got := p.ZonePrune(min, max); got && any {
						t.Errorf("%s zone [%d,%d]: pruned but a value matches", p, min, max)
					} else if !got && !any {
						// Pruning may be conservative, but the core ops on
						// exact int zones should not miss: report once.
						t.Errorf("%s zone [%d,%d]: prunable but not pruned", p, min, max)
					}
					if got := p.ZoneAllMatch(min, max); got && !all {
						t.Errorf("%s zone [%d,%d]: all-match but a value fails", p, min, max)
					} else if !got && all {
						t.Errorf("%s zone [%d,%d]: all match but not detected", p, min, max)
					}
				}
			}
		}
	}
	// Non-integer literals must never prune or certify.
	sp := Pred{Col: "c", Op: "=", Kind: "str", Val: "x"}
	if sp.ZonePrune(0, 1) || sp.ZoneAllMatch(0, 1) {
		t.Error("string literal used an integer zone")
	}
}

func TestTimeWindow(t *testing.T) {
	var nilWin *TimeWindow
	if !nilWin.Contains(42) || !nilWin.OverlapsRange(1, 2) || nilWin.Intersect(nil) != nil {
		t.Error("nil window must contain everything")
	}
	w := nilWin.Intersect(&TimeWindow{From: 100, HasFrom: true}).Intersect(&TimeWindow{To: 200, HasTo: true})
	for sec, want := range map[int64]bool{99: false, 100: true, 199: true, 200: false, MaxWireSec - 1: false, MaxWireSec: true} {
		if w.Contains(sec) != want {
			t.Errorf("Contains(%d) = %v, want %v (half-open [100,200), never past MaxWireSec)", sec, !want, want)
		}
	}
	if !w.OverlapsRange(50, 100) || w.OverlapsRange(50, 99) || w.OverlapsRange(200, 300) || !w.OverlapsRange(199, 300) || !w.OverlapsRange(300, MaxWireSec) {
		t.Error("OverlapsRange bounds wrong")
	}
	// Intersect only narrows, and changes neither operand.
	if got := w.Intersect(&TimeWindow{From: 50, HasFrom: true, To: 300, HasTo: true}); *got != *w {
		t.Errorf("Intersect widened to %+v", got)
	}
	if got := w.Intersect(&TimeWindow{From: 150, HasFrom: true}); got.From != 150 || got.To != 200 || w.From != 100 {
		t.Errorf("Intersect(From 150) = %+v (operand now %+v)", got, w)
	}
	// An open side spans every time a wire form names.
	if r := nilWin.Range(); r.From.Year() != 0 || r.To.Unix() != MaxWireSec {
		t.Errorf("open range = %v", r)
	}
	if r := w.Range(); r.From.Unix() != 100 || r.To.Unix() != 200 {
		t.Errorf("range = %v", r)
	}
}

func TestAddRowFinalize(t *testing.T) {
	s := &Spec{Aggs: []Agg{
		{Fn: "COUNT"}, {Fn: "COUNT", Col: "v"}, {Fn: "SUM", Col: "v"},
		{Fn: "MIN", Col: "v"}, {Fn: "MAX", Col: "v"},
	}}
	p := s.NewPartial(telco.Null)
	for _, v := range []telco.Value{telco.Int(3), telco.Null, telco.Int(-1), telco.Int(7)} {
		s.AddRow(p, []telco.Value{telco.Null, v, v, v, v})
	}
	want := []telco.Value{telco.Int(4), telco.Int(3), telco.Int(9), telco.Int(-1), telco.Int(7)}
	for i, a := range s.Aggs {
		got := a.Finalize(&p.Cells[i])
		if got.Format() != want[i].Format() {
			t.Errorf("%s = %s, want %s", a, got.Format(), want[i].Format())
		}
	}
	// Aggregates over nothing: COUNT is 0, the rest NULL.
	empty := s.NewPartial(telco.Null)
	for i, a := range s.Aggs {
		got := a.Finalize(&empty.Cells[i])
		if a.Fn == "COUNT" {
			if got.Int64() != 0 {
				t.Errorf("%s of nothing = %s", a, got.Format())
			}
		} else if !got.IsNull() {
			t.Errorf("%s of nothing = %s, want NULL", a, got.Format())
		}
	}
}

// TestCanUseMeta: which aggregates chunk metadata alone may answer (the
// engine's metadata fold is held to the row fold in core).
func TestCanUseMeta(t *testing.T) {
	s := &Spec{Aggs: []Agg{{Fn: "COUNT"}, {Fn: "COUNT", Col: "v"}, {Fn: "MIN", Col: "v"}, {Fn: "MAX", Col: "v"}}}
	if !s.CanUseMeta(func(string) bool { return true }) {
		t.Fatal("meta-answerable aggregates rejected")
	}
	// SUM and GROUP BY disqualify metadata answering.
	if (&Spec{Aggs: []Agg{{Fn: "SUM", Col: "v"}}}).CanUseMeta(func(string) bool { return true }) {
		t.Error("SUM answered from metadata")
	}
	if (&Spec{Aggs: []Agg{{Fn: "COUNT"}}, GroupBy: "g"}).CanUseMeta(func(string) bool { return true }) {
		t.Error("grouped aggregate answered from metadata")
	}
	if (&Spec{Aggs: []Agg{{Fn: "MIN", Col: "v"}}}).CanUseMeta(func(string) bool { return false }) {
		t.Error("MIN over unzoned column answered from metadata")
	}
}

// TestMergeMatchesKeyedFold: the one-pass merge of two key-sorted lists
// equals folding them key by key through a map and sorting, over random
// lists of overlapping int keys, and returns src itself when dst is empty.
func TestMergeMatchesKeyedFold(t *testing.T) {
	s := &Spec{Aggs: []Agg{{Fn: "COUNT"}, {Fn: "SUM", Col: "v"}, {Fn: "MIN", Col: "v"}, {Fn: "MAX", Col: "v"}}, GroupBy: "g"}
	rng := rand.New(rand.NewSource(39))
	list := func() []Partial {
		byKey := map[string]*Partial{}
		for n := rng.Intn(12); n > 0; n-- {
			g := telco.Int(rng.Int63n(40) - 10)
			p := byKey[g.Format()]
			if p == nil {
				p = s.NewPartial(g)
				byKey[g.Format()] = p
			}
			v := telco.Int(rng.Int63n(200) - 100)
			s.AddRow(p, []telco.Value{telco.Null, v, v, v})
		}
		var out []Partial
		for _, p := range byKey {
			out = append(out, *p)
		}
		slices.SortFunc(out, func(a, b Partial) int { return strings.Compare(a.Key, b.Key) })
		return out
	}
	clone := func(ps []Partial) []Partial {
		out := slices.Clone(ps)
		for i := range out {
			out[i].Cells = slices.Clone(out[i].Cells)
		}
		return out
	}
	// keyed is the fold Merge replaced: index dst by key, fold or append
	// each of src, sort.
	keyed := func(dst, src []Partial) []Partial {
		at := map[string]int{}
		for i := range dst {
			at[dst[i].Key] = i
		}
		for _, p := range src {
			i, ok := at[p.Key]
			if !ok {
				at[p.Key] = len(dst)
				dst = append(dst, p)
				continue
			}
			mergeCells(dst[i].Cells, p.Cells)
		}
		slices.SortFunc(dst, func(a, b Partial) int { return strings.Compare(a.Key, b.Key) })
		return dst
	}
	for trial := 0; trial < 500; trial++ {
		a, b := list(), list()
		got := Merge(clone(a), clone(b))
		want := keyed(clone(a), clone(b))
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged\n%+v\nwant\n%+v", trial, got, want)
		}
	}
	src := []Partial{*s.NewPartial(telco.Int(1))}
	if got := Merge(nil, src); &got[0] != &src[0] {
		t.Error("merging into nothing copied src")
	}
}

// TestMergeAssociativeCommutative: any fold order of shard partials gives
// the same final answer.
func TestMergeAssociativeCommutative(t *testing.T) {
	s := &Spec{Aggs: []Agg{{Fn: "COUNT"}, {Fn: "SUM", Col: "v"}, {Fn: "MIN", Col: "v"}, {Fn: "MAX", Col: "v"}}, GroupBy: "g"}
	// A shard ships its partials in key order, as Merge needs them.
	shard := func(groups map[string][]int64) []Partial {
		var names []string
		for g := range groups {
			names = append(names, g)
		}
		slices.Sort(names)
		var out []Partial
		for _, g := range names {
			vals := groups[g]
			p := s.NewPartial(telco.String(g))
			for _, v := range vals {
				tv := telco.Int(v)
				s.AddRow(p, []telco.Value{telco.Null, tv, tv, tv})
			}
			out = append(out, *p)
		}
		return out
	}
	a := shard(map[string][]int64{"x": {1, 2}, "y": {10}})
	b := shard(map[string][]int64{"y": {-5, 3}, "z": {7}})
	c := shard(map[string][]int64{"x": {100}})

	render := func(ps []Partial) string {
		data, _ := json.Marshal(ps)
		return string(data)
	}
	clone := func(ps []Partial) []Partial {
		out := make([]Partial, len(ps))
		for i, p := range ps {
			out[i] = p
			out[i].Cells = append([]Cell(nil), p.Cells...)
		}
		return out
	}
	ab_c := Merge(Merge(clone(a), clone(b)), clone(c))
	c_ba := Merge(Merge(clone(c), clone(b)), clone(a))
	if render(ab_c) != render(c_ba) {
		t.Fatalf("fold order changed the answer:\n%s\n%s", render(ab_c), render(c_ba))
	}
	if len(ab_c) != 3 || ab_c[0].Key > ab_c[1].Key || ab_c[1].Key > ab_c[2].Key {
		t.Fatalf("merged partials not key-sorted: %s", render(ab_c))
	}
	// Spot-check group y: rows 10, -5, 3.
	for _, p := range ab_c {
		if p.Group.Value().Str() != "y" {
			continue
		}
		got := []telco.Value{
			s.Aggs[0].Finalize(&p.Cells[0]), s.Aggs[1].Finalize(&p.Cells[1]),
			s.Aggs[2].Finalize(&p.Cells[2]), s.Aggs[3].Finalize(&p.Cells[3]),
		}
		want := []int64{3, 8, -5, 10}
		for i := range want {
			if got[i].Int64() != want[i] {
				t.Errorf("group y agg %d = %s, want %d", i, got[i].Format(), want[i])
			}
		}
	}
}

func TestWireValueRoundTrip(t *testing.T) {
	vals := []telco.Value{
		telco.Int(-42), telco.Float(1.5), telco.String(""), telco.String("DATA"), telco.Null,
	}
	for _, v := range vals {
		got := FromValue(v).Value()
		if got.Kind() != v.Kind() || got.Format() != v.Format() {
			t.Errorf("round trip %s (%v) -> %s (%v)", v.Format(), v.Kind(), got.Format(), got.Kind())
		}
	}
	// And through JSON, as the cluster RPC carries it.
	w := FromValue(telco.Int(7))
	data, _ := json.Marshal(w)
	var back WireValue
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Value().Int64() != 7 {
		t.Errorf("JSON round trip = %s", back.Value().Format())
	}
}

// TestWireValueMatchesSlowParse: group keys and extremes read back off
// their wire text exactly as strconv and the time layout read them —
// canonical and non-canonical integers, the int64 edges and past them,
// valid and impossible timestamps, text that is neither, and the null and
// empty-string keys.
func TestWireValueMatchesSlowParse(t *testing.T) {
	texts := []string{"", "0", "7", "-7", "007", "-0", "+5", "00", "1_000", " 1", "1e3", "x",
		"999999999999999999", "-999999999999999999", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809", "18446744073709551616",
		"20160118093000", "20160229235959", "20150229000000", "20161231240000", "20160118", "2016011809300",
		"201601180930000", "-2016011809300", "00000101000000"}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 500; i++ {
		texts = append(texts, strconv.FormatInt(rng.Int63()>>uint(rng.Intn(64))*int64(1-2*rng.Intn(2)), 10),
			time.Unix(rng.Int63n(4e9), 0).UTC().Format(telco.TimeLayout))
	}
	slow := func(kind, s string) telco.Value {
		switch {
		case kind == "str":
			return telco.String(s)
		case s == "" || kind == "":
			return telco.Null
		case kind == "int":
			if x, err := strconv.ParseInt(s, 10, 64); err == nil {
				return telco.Int(x)
			}
		case kind == "time":
			if at, err := time.ParseInLocation(telco.TimeLayout, s, time.UTC); err == nil {
				return telco.Time(at)
			}
		case kind == "float":
			if f, err := strconv.ParseFloat(s, 64); err == nil {
				return telco.Float(f)
			}
		}
		return telco.Null
	}
	for _, kind := range []string{"", "int", "time", "float", "str"} {
		for _, s := range texts {
			got, want := WireValue{Kind: kind, Val: s}.Value(), slow(kind, s)
			if got.Kind() != want.Kind() || got.Format() != want.Format() {
				t.Errorf("%s %q reads %v %q, want %v %q", kind, s, got.Kind(), got.Format(), want.Kind(), want.Format())
			}
		}
	}
}

func TestValidate(t *testing.T) {
	good := &Spec{
		Preds: []Pred{{Col: "c", Op: ">=", Kind: "int", Val: "1"}},
		Aggs:  []Agg{{Fn: "COUNT"}, {Fn: "SUM", Col: "v"}},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*Spec{
		{Preds: []Pred{{Col: "c", Op: "LIKE", Kind: "str", Val: "x"}}},
		{Preds: []Pred{{Col: "c", Op: "=", Kind: "time", Val: "x"}}},
		{Preds: []Pred{{Col: "c", Op: "=", Kind: "int", Val: "abc"}}},
		{Preds: []Pred{{Col: "c", Op: "=", Kind: "int", Val: "1.5"}}},
		{Preds: []Pred{{Col: "c", Op: "<", Kind: "float", Val: "1.5x"}}},
		{Preds: []Pred{{Col: "c", Op: "<", Kind: "float", Val: ""}}},
		{Aggs: []Agg{{Fn: "AVG", Col: "v"}}},
		{Aggs: []Agg{{Fn: "SUM"}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

// FuzzValidateSpec: Validate is the gate a node puts in front of a spec
// off the wire. Whatever JSON it is handed, a spec it accepts has a
// non-null literal in every predicate, and evaluating it — row by row or
// against integer zone maps — never panics. On a one-value zone [v, v] the
// zone verdicts agree with evaluating v itself.
func FuzzValidateSpec(f *testing.F) {
	for _, seed := range []string{
		`{"columns":["upflux"],"preds":[{"col":"duration","op":">=","kind":"int","val":"0"}]}`,
		`{"preds":[{"col":"c","op":"!=","kind":"float","val":"-1.5e3"},{"col":"d","op":"=","kind":"str","val":""}]}`,
		`{"preds":[{"col":"c","op":"<","kind":"int","val":"-9223372036854775808"}],"aggs":[{"fn":"COUNT"},{"fn":"MAX","col":"c"}],"group_by":"g"}`,
		`{"preds":[{"col":"c","op":"~","kind":"int","val":"1"}]}`,
		`{"preds":[{"col":"c","op":"=","kind":"blob","val":"1"}]}`,
		`{"preds":[{"col":"c","op":"=","kind":"int","val":"abc"}]}`,
		`{"aggs":[{"fn":"SUM"}],"window":{"from":5,"has_from":true}}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	ints := []int64{math.MinInt64, -1, 0, 1, 300, math.MaxInt64}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *Spec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		_ = s.String()
		_ = s.Referenced()
		if s == nil {
			return
		}
		vals := []telco.Value{telco.Null, telco.String(""), telco.String("x"), telco.Float(math.NaN()), telco.Float(-0.5)}
		for _, v := range ints {
			vals = append(vals, telco.Int(v))
		}
		for _, p := range s.Preds {
			if p.Literal().IsNull() {
				t.Fatalf("accepted %+v, whose literal is null", p)
			}
			for _, v := range vals {
				p.Eval(v)
			}
			for _, lo := range ints {
				for _, hi := range ints {
					if lo <= hi && p.ZonePrune(lo, hi) && p.ZoneAllMatch(lo, hi) {
						t.Fatalf("%+v: zone [%d, %d] both pruned and all-matching", p, lo, hi)
					}
				}
				if _, isInt := p.IntLiteral(); isInt {
					if match := p.Eval(telco.Int(lo)); p.ZoneAllMatch(lo, lo) != match || p.ZonePrune(lo, lo) == match {
						t.Fatalf("%+v: zone [%d, %d] disagrees with Eval(%d) = %v", p, lo, lo, lo, match)
					}
				}
			}
		}
	})
}

func TestReferencedAndString(t *testing.T) {
	s := &Spec{
		Columns: []string{"a", "b"},
		Preds:   []Pred{{Col: "b", Op: "=", Kind: "int", Val: "1"}, {Col: "c", Op: ">", Kind: "int", Val: "2"}},
		Aggs:    []Agg{{Fn: "SUM", Col: "d"}},
		GroupBy: "e",
	}
	got := s.Referenced()
	want := []string{"a", "b", "c", "d", "e"}
	if len(got) != len(want) {
		t.Fatalf("referenced = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("referenced = %v, want %v", got, want)
		}
	}
	if (*Spec)(nil).String() != "full scan" {
		t.Error("nil spec String")
	}
	if s := (&Spec{}).String(); s != "all columns" {
		t.Errorf("empty spec String = %q", s)
	}
}
