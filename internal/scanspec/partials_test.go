package scanspec

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"spate/internal/telco"
)

// wirePartials folds rows of every value kind into partials the way a shard
// does: groups of every kind (null, empty, non-ASCII among them), COUNT(*),
// COUNT, an integer SUM that goes negative, and MIN/MAX over each kind,
// shipped in key order.
func wirePartials(rng *rand.Rand) []Partial {
	values := []telco.Value{
		telco.Null, telco.Int(0), telco.Int(math.MinInt64), telco.Int(math.MaxInt64), telco.Int(-17),
		telco.Float(1.5), telco.Float(-0.25), telco.Float(math.Inf(1)), telco.Float(1e-300),
		telco.String(""), telco.String("DATA"), telco.String("Zürich — 東京"), telco.String("a|b\nc"),
		telco.Time(time.Unix(1453075200, 0)), telco.Time(time.Unix(0, 0)),
	}
	spec := &Spec{Aggs: []Agg{{Fn: "COUNT"}, {Fn: "COUNT", Col: "v"}, {Fn: "SUM", Col: "n"}, {Fn: "MIN", Col: "v"}, {Fn: "MAX", Col: "v"}}}
	byKey := map[string]*Partial{}
	var out []Partial
	for i := rng.Intn(12); i >= 0; i-- {
		g := values[rng.Intn(len(values))]
		p := byKey[g.Format()]
		if p == nil {
			p = spec.NewPartial(g)
			byKey[g.Format()] = p
		}
		for r := rng.Intn(4); r > 0; r-- {
			v := values[rng.Intn(len(values))]
			// MIN and MAX of one partial fold one kind, as one column's do.
			if p.Cells[3].Seen && v.Kind() != p.Cells[3].Min.Value().Kind() {
				v = telco.Null
			}
			spec.AddRow(p, []telco.Value{telco.Null, v, telco.Int(rng.Int63n(1000) - 900), v, v})
		}
	}
	for _, p := range byKey {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TestPartialsRoundTrip: AppendPartials → ReadPartials → AppendPartials
// gives the same bytes and equal partials. Key does not travel, and comes
// back because it is always the group's Val.
func TestPartialsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	kinds := map[string]bool{}
	for trial := 0; trial < 300; trial++ {
		ps := wirePartials(rng)
		for _, p := range ps {
			if p.Key != p.Group.Val {
				t.Fatalf("partial key %q, group value %q", p.Key, p.Group.Val)
			}
			kinds[p.Group.Kind] = true
		}
		data := AppendPartials(nil, ps)
		got, err := ReadPartials(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(ps) == 0 {
			ps = []Partial{} // ReadPartials never returns nil
		}
		if !reflect.DeepEqual(got, ps) {
			t.Fatalf("trial %d: read %+v, wrote %+v", trial, got, ps)
		}
		if again := AppendPartials(nil, got); !bytes.Equal(again, data) {
			t.Fatalf("trial %d: re-encoding differs", trial)
		}
		if trial%10 == 0 {
			for n := 0; n < len(data); n++ {
				if _, err := ReadPartials(data[:n]); err == nil {
					t.Fatalf("trial %d: a %d-byte prefix of %d bytes read", trial, n, len(data))
				}
			}
		}
	}
	for _, k := range wireKinds {
		if !kinds[k] {
			t.Errorf("no group of kind %q drawn", k)
		}
	}
}

// TestReadPartialsRejects: an unknown value kind, a Seen byte other than 0
// or 1, a count past the bytes left and trailing bytes all fail the read.
func TestReadPartialsRejects(t *testing.T) {
	spec := &Spec{Aggs: []Agg{{Fn: "MAX", Col: "v"}}}
	p := spec.NewPartial(telco.String("g"))
	spec.AddRow(p, []telco.Value{telco.Int(3)})
	good := AppendPartials(nil, []Partial{*p})
	// good: 1 partial; group kind 3, len 1, "g"; 1 cell; seen 1, ...
	if _, err := ReadPartials(good); err != nil {
		t.Fatal(err)
	}
	edit := func(at int, b byte) []byte {
		out := bytes.Clone(good)
		out[at] = b
		return out
	}
	for name, data := range map[string][]byte{
		"group kind":     edit(1, 9),
		"seen flag":      edit(5, 2),
		"partial count":  edit(0, 2),
		"trailing bytes": append(bytes.Clone(good), 0),
	} {
		if _, err := ReadPartials(data); err == nil {
			t.Errorf("%s: read", name)
		}
	}
}

// TestReadPartialsRejectsKeyOrder: a section whose keys are not strictly
// increasing — out of order, or one key twice — fails the read, since Merge
// folds two lists in one pass that relies on that order. Keys compare as
// bytes: "10" sorts before "9".
func TestReadPartialsRejectsKeyOrder(t *testing.T) {
	spec := &Spec{Aggs: []Agg{{Fn: "COUNT"}}}
	part := func(g telco.Value) Partial { return *spec.NewPartial(g) }
	ordered := []Partial{part(telco.Null), part(telco.Int(10)), part(telco.Int(9)), part(telco.String("a"))}
	if _, err := ReadPartials(AppendPartials(nil, ordered)); err != nil {
		t.Fatalf("ordered keys: %v", err)
	}
	for name, ps := range map[string][]Partial{
		"descending":     {part(telco.Int(9)), part(telco.Int(10))},
		"repeated":       {part(telco.Int(7)), part(telco.Int(7))},
		"null repeated":  {part(telco.Null), part(telco.String(""))},
		"same wire form": {part(telco.Int(5)), part(telco.String("5"))},
		"late":           {part(telco.Int(1)), part(telco.Int(3)), part(telco.Int(2))},
	} {
		if _, err := ReadPartials(AppendPartials(nil, ps)); err == nil {
			t.Errorf("%s: read", name)
		}
	}
}

// TestMergeMismatchedCells: partials of one key with different cell counts
// — a shard answering another spec — merge the cells both hold and never
// index past either side.
func TestMergeMismatchedCells(t *testing.T) {
	one := Partial{Key: "", Cells: []Cell{{Seen: true, Count: 1}}}
	three := Partial{Key: "", Cells: []Cell{{Seen: true, Count: 2}, {Count: 5}, {Count: 7}}}
	for _, order := range [][2]Partial{{one, three}, {three, one}} {
		a, b := order[0], order[1]
		a.Cells = append([]Cell(nil), a.Cells...)
		got := Merge([]Partial{a}, []Partial{b})
		if len(got) != 1 || got[0].Cells[0].Count != 3 {
			t.Errorf("merged %+v", got)
		}
	}
}

// FuzzReadPartials: the partials reader never panics, allocates no more
// than a bound proportional to its input, accepts keys only in strictly
// increasing order, and whatever it accepts re-encodes to a form that reads
// back to equal partials and re-encodes to itself. Seeds include partials
// out of key order and a key twice.
func FuzzReadPartials(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add(AppendPartials(nil, wirePartials(rng)))
	}
	f.Add([]byte{0})
	spec := &Spec{Aggs: []Agg{{Fn: "COUNT"}, {Fn: "MAX", Col: "v"}}}
	unsorted := []Partial{*spec.NewPartial(telco.Int(1001)), *spec.NewPartial(telco.Int(1000))}
	f.Add(AppendPartials(nil, unsorted))
	f.Add(AppendPartials(nil, []Partial{unsorted[0], unsorted[0]}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ps, err := ReadPartials(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > uint64(64*len(data)+64<<10) {
			t.Fatalf("reading %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		for i, p := range ps {
			if p.Key != p.Group.Val {
				t.Fatalf("key %q, group value %q", p.Key, p.Group.Val)
			}
			if i > 0 && p.Key <= ps[i-1].Key {
				t.Fatalf("key %q read after %q", p.Key, ps[i-1].Key)
			}
		}
		enc := AppendPartials(nil, ps)
		again, err := ReadPartials(enc)
		if err != nil || !reflect.DeepEqual(again, ps) {
			t.Fatalf("re-encoded partials read back as %+v (%v), want %+v", again, err, ps)
		}
		if enc2 := AppendPartials(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatal("re-encoding is not stable")
		}
	})
}
