package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {10, 1}, {100, 10}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 || Median(nil) != 0 {
		t.Error("empty input must read 0")
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestSlicePercentileIgnoresOneBurst(t *testing.T) {
	// Three 10-second slices of 1 ms samples; in the middle slice every
	// fifth sample takes 50 ms. The burst decides the pooled p95 and its
	// own slice's, but not the median of the three slices.
	var samples []Sample
	for i := 0; i < 300; i++ {
		ms := 1.0
		if i >= 100 && i < 200 && i%5 == 0 {
			ms = 50
		}
		samples = append(samples, Sample{At: float64(i) / 10, Ms: ms})
	}
	if got := SlicePercentile(samples, 30, 3, 95); got != 1 {
		t.Errorf("slice-median p95 = %v, want 1", got)
	}
	if got := SlicePercentile(samples, 30, 1, 95); got != 50 {
		t.Errorf("pooled p95 = %v, want 50", got)
	}
	if got := SlicePercentile(samples[100:200], 30, 1, 95); got != 50 {
		t.Errorf("the burst slice alone: p95 = %v, want 50", got)
	}
	// A sample exactly at the window's end belongs to the last slice.
	if got := SlicePercentile([]Sample{{At: 30, Ms: 7}}, 30, 3, 50); got != 7 {
		t.Errorf("sample at the end = %v, want 7", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := Quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := Spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]: the method
	// extrapolates on short input.
	q1, q3 = Quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two samples: %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestDivByZero(t *testing.T) {
	if got := Div(3, 0); got != 0 {
		t.Errorf("Div(3, 0) = %v, want 0", got)
	}
	if got := Div(3, 2); got != 1.5 {
		t.Errorf("Div(3, 2) = %v, want 1.5", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", got)
	}
	if got := GeoMean([]float64{0, 4, 9}); math.Abs(got-6) > 1e-9 {
		t.Errorf("zeros are left out: %v, want 6", got)
	}
}

var (
	testFrom = time.Date(2016, 1, 18, 0, 0, 0, 0, time.UTC)
	testTo   = testFrom.Add(4 * 24 * time.Hour)
)

func testCells() []Point {
	var out []Point
	for i := 0; i < 400; i++ {
		out = append(out, Point{X: float64(i%20) * 4, Y: float64(i/20) * 3.7})
	}
	return out
}

func opKeys(ops []Op) string {
	var sb strings.Builder
	for _, op := range ops {
		sb.WriteString(op.Key())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestSameSeedSameOps(t *testing.T) {
	for name, spec := range Specs(false) {
		f1, o1 := spec.Ops(7, 2000, testFrom, testTo, testCells())
		f2, o2 := spec.Ops(7, 2000, testFrom, testTo, testCells())
		if opKeys(o1) != opKeys(o2) || opKeys(f1) != opKeys(f2) {
			t.Errorf("%s: same seed gave different ops", name)
		}
		_, o3 := spec.Ops(8, 2000, testFrom, testTo, testCells())
		if opKeys(o1) == opKeys(o3) {
			t.Errorf("%s: another seed gave the same ops", name)
		}
		if len(o1) != 2000 {
			t.Errorf("%s: %d ops, want 2000", name, len(o1))
		}
	}
}

func TestMixProportionsHoldInEveryBlock(t *testing.T) {
	spec := Specs(false)[ScanCold]
	_, ops := spec.Ops(3, 1000, testFrom, testTo, testCells())
	want := make(map[string]int)
	for _, c := range spec.Mix {
		want[c]++
	}
	for b := 0; b+len(spec.Mix) <= len(ops); b += len(spec.Mix) {
		got := make(map[string]int)
		for _, op := range ops[b : b+len(spec.Mix)] {
			got[op.Class]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block at %d holds %v, want %v", b, got, want)
		}
	}
	seen := make(map[string]bool)
	for _, op := range ops {
		if IsSQL(op.Class) {
			continue
		}
		if seen[op.Key()] {
			t.Fatalf("exploration repeats: %s", op.Key())
		}
		seen[op.Key()] = true
		if d := op.To.Sub(op.From); d != spec.Shape[op.Class] {
			t.Fatalf("%s window is %v long, want %v", op.Class, d, spec.Shape[op.Class])
		}
		if op.From.Before(testFrom) || op.To.After(testTo) {
			t.Fatalf("window %v..%v leaves the trace", op.From, op.To)
		}
	}
}

func TestWindowsSpreadEvenlyOverTheDay(t *testing.T) {
	// Any stretch of the list must see day and night alike: of 48 T3
	// windows in a row, every six-hour quarter of the day gets its share.
	spec := Specs(false)[ScanCold]
	_, ops := spec.Ops(11, 400, testFrom, testTo, testCells())
	var quarter [4]int
	n := 0
	for _, op := range ops {
		if op.Class == ClassT3 && n < 48 {
			quarter[op.From.Hour()/6]++
			n++
		}
	}
	for q, c := range quarter {
		if c < 8 || c > 16 {
			t.Errorf("quarter %d of the day holds %d of 48 windows: %v", q, c, quarter)
		}
	}
}

func TestZipfRankFrequencies(t *testing.T) {
	spec := Specs(false)[ExploreHot]
	fixed, ops := spec.Ops(5, 50000, testFrom, testTo, testCells())
	if len(fixed) != spec.FixedQueries {
		t.Fatalf("fixed set has %d queries, want %d", len(fixed), spec.FixedQueries)
	}
	rank := make(map[string]int)
	for i, op := range fixed {
		rank[op.Key()] = i
		if wantBox := i%2 == 1; op.HasBox != wantBox {
			t.Fatalf("rank %d: boxed=%v, want %v", i, op.HasBox, wantBox)
		}
	}
	freq := make([]float64, len(fixed))
	for _, op := range ops {
		r, ok := rank[op.Key()]
		if !ok {
			t.Fatalf("op outside the fixed set: %s", op.Key())
		}
		freq[r]++
	}
	// P(k) ∝ (1+k)^-1.2 over 64 ranks: rank 0 draws about 27 %.
	if share := freq[0] / float64(len(ops)); share < 0.24 || share > 0.30 {
		t.Errorf("hottest query draws %.3f of the requests, want about 0.27", share)
	}
	for k := 0; k < 6; k++ {
		want := math.Pow(float64(k+2)/float64(k+1), -1.2)
		if got := freq[k+1] / freq[k]; math.Abs(got-want) > 0.08 {
			t.Errorf("rank %d/%d frequency ratio = %.3f, want %.3f", k+1, k, got, want)
		}
	}
}

func TestBoxesHoldATenthOfTheCells(t *testing.T) {
	cells := testCells()
	spec := Specs(false)[ExploreHot]
	fixed, _ := spec.Ops(9, 10, testFrom, testTo, cells)
	for _, op := range fixed {
		if !op.HasBox {
			continue
		}
		n := 0
		for _, c := range cells {
			if c.X >= op.Box[0] && c.X <= op.Box[2] && c.Y >= op.Box[1] && c.Y <= op.Box[3] {
				n++
			}
		}
		if n < 30 || n > 50 {
			t.Errorf("box %v holds %d of %d cells, want about a tenth", op.Box, n, len(cells))
		}
	}
}

func TestStraddleCrossesADayBoundary(t *testing.T) {
	spec := Specs(false)[ClusterMix]
	fixed, ops := spec.Ops(2, 500, testFrom, testTo, testCells())
	for _, op := range append(fixed, ops...) {
		if op.From.Truncate(24*time.Hour) == op.To.Add(-time.Minute).Truncate(24*time.Hour) {
			t.Fatalf("%s %v..%v stays inside one day", op.Class, op.From, op.To)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// http 0..100 ⊃ serving 10..90 ⊃ webui 20..80 ⊃ {cache.get 25..30,
	// scan 40..60 and scan 50..70 overlapping (parallel workers)}.
	spans := []Span{
		{Name: "http", Parent: -1, Start: 0, End: 100},
		{Name: "serving", Parent: 0, Start: 10, End: 90},
		{Name: "webui", Parent: 1, Start: 20, End: 80},
		{Name: "cache.get", Parent: 2, Start: 25, End: 30},
		{Name: "scan", Parent: 2, Start: 40, End: 60},
		{Name: "scan", Parent: 2, Start: 50, End: 70},
	}
	want := []int64{20, 20, 25, 5, 20, 20}
	if got := SelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
	by := SelfByName(spans)
	if by["scan"] != 40 || by["webui"] != 25 {
		t.Errorf("by name = %v", by)
	}
	// A child that outlives its parent is clipped to it.
	clipped := []Span{{Name: "a", Parent: -1, Start: 0, End: 10}, {Name: "b", Parent: 0, Start: 5, End: 50}}
	if got := SelfTimes(clipped); got[0] != 5 {
		t.Errorf("clipped parent self = %d, want 5", got[0])
	}
}

// writeTrace makes a tiny trace directory: per epoch, cdr CDR lines and nms
// NMS lines with timestamps inside the epoch.
func writeTrace(t *testing.T, dir string, epochs, cdr, nms int) []time.Time {
	t.Helper()
	var out []time.Time
	for e := 0; e < epochs; e++ {
		start := testFrom.Add(time.Duration(e) * EpochLen)
		out = append(out, start)
		d := filepath.Join(dir, start.Format(TimeLayout))
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		var c, n strings.Builder
		for i := 0; i < cdr; i++ {
			ts := start.Add(time.Duration(i%1800) * time.Second).Format(TimeLayout)
			fmt.Fprintf(&c, "%s|3570000%04d|35700009999|%d|VOICE|%d|%d|%d|OK|imei|x|y\n", ts, i%7, 1000+i%5, 100*(i%6), i, 2*i)
		}
		for i := 0; i < nms; i++ {
			ts := start.Add(time.Duration(i%3) * 10 * time.Minute).Format(TimeLayout)
			fmt.Fprintf(&n, "%s|%d|%d|%d|42.5|100|-70.5|0\n", ts, 1000+i%5, i%3, 10+i)
		}
		if err := os.WriteFile(filepath.Join(d, "CDR"), []byte(c.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, "NMS"), []byte(n.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestFeedNeverSendsAnEpochAfterALaterOne(t *testing.T) {
	dir := t.TempDir()
	epochs := writeTrace(t, dir, 5, 620, 130)
	files := FeedOrder(dir, epochs)
	for i := 1; i < len(files); i++ {
		prev, f := files[i-1], files[i]
		if f.Epoch < prev.Epoch {
			t.Fatalf("file %s of epoch %d follows epoch %d", f.Path, f.Epoch, prev.Epoch)
		}
		if f.Epoch == prev.Epoch && (prev.Table != "CDR" || f.Table != "NMS") {
			t.Fatalf("epoch %d: %s before %s", f.Epoch, prev.Table, f.Table)
		}
	}
	f := StartFeed(dir, epochs)
	defer f.Close()
	last, rows := 0, 0
	lastTable := ""
	for j := f.Next(); j != nil; j = f.Next() {
		if j.Epoch < last {
			t.Fatalf("batch of epoch %d after epoch %d", j.Epoch, last)
		}
		if j.Epoch == last && lastTable == "NMS" && j.Table == "CDR" {
			t.Fatalf("epoch %d: CDR after NMS", j.Epoch)
		}
		if int(f.EpochsDone.Load()) != j.Epoch {
			t.Fatalf("taking a batch of epoch %d reports %d epochs done", j.Epoch, f.EpochsDone.Load())
		}
		if j.Rows > BatchRows || j.Rows != len(j.Lines) {
			t.Fatalf("batch of %d rows, %d lines", j.Rows, len(j.Lines))
		}
		var body struct {
			Table string
			Rows  []string
		}
		if err := json.Unmarshal(j.Body, &body); err != nil || body.Table != j.Table || len(body.Rows) != j.Rows {
			t.Fatalf("body does not carry the batch: %v", err)
		}
		for _, line := range j.Lines {
			ts, err := time.ParseInLocation(TimeLayout, line[:14], time.UTC)
			if err != nil || ts.Before(epochs[j.Epoch]) || !ts.Before(epochs[j.Epoch].Add(EpochLen)) {
				t.Fatalf("line of epoch %d carries timestamp %s", j.Epoch, line[:14])
			}
		}
		last, lastTable, rows = j.Epoch, j.Table, rows+j.Rows
	}
	f.Close()
	if f.Err != nil {
		t.Fatal(f.Err)
	}
	if rows != 5*(620+130) {
		t.Errorf("feed delivered %d rows, want %d", rows, 5*(620+130))
	}
}

func TestOracleAndDigests(t *testing.T) {
	dir := t.TempDir()
	epochs := writeTrace(t, dir, 4, 60, 15)
	listed, err := ListEpochs(dir)
	if err != nil || !reflect.DeepEqual(listed, epochs) {
		t.Fatalf("ListEpochs = %v, %v", listed, err)
	}
	o, err := LoadOracle(dir, epochs)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.CDR) != 240 || len(o.NMS) != 60 {
		t.Fatalf("loaded %d CDR and %d NMS rows", len(o.CDR), len(o.NMS))
	}
	from, to := epochs[1], epochs[3]

	// T2: two whole epochs.
	op := Op{Class: ClassT2, From: from, To: to}
	want := o.CDRFlux(from, to, -1)
	if want.Rows != 120 {
		t.Fatalf("oracle T2 rows = %d, want 120", want.Rows)
	}
	var sb strings.Builder
	sb.WriteString(`{"cols":["upflux","downflux"],"rows":[`)
	lo, hi := o.cdrRange(from, to)
	for i, r := range o.CDR[lo:hi] {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `["%d","%d"]`, r.Upflux, r.Downfl)
	}
	sb.WriteString("]}\n")
	d, err := DigestBody(ClassT2, []byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if msg := o.Verify(op, d); msg != "" {
		t.Errorf("right answer rejected: %s", msg)
	}
	d.Up++
	if msg := o.Verify(op, d); msg == "" {
		t.Error("wrong flux sum accepted")
	}

	// T3 per-cell sums.
	cells := o.NMSByCell(from, to)
	sb.Reset()
	sb.WriteString(`{"cols":["cell_id","drops","attempts"],"rows":[`)
	for i, id := range []int64{1000, 1001, 1002, 1003, 1004} {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `["%d","%d","%d"]`, id, cells[id].Drops, cells[id].Attempts)
	}
	sb.WriteString("]}\n")
	d, err = DigestBody(ClassT3, []byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if msg := o.Verify(Op{Class: ClassT3, From: from, To: to}, d); msg != "" {
		t.Errorf("right aggregate rejected: %s", msg)
	}

	// An exploration counts every epoch its window touches, whole.
	d, err = DigestBody(ClassExplore, []byte(`{"covering_level":"day","rows":150,"cache_hit":true,"cells":[{"rows":3}]}`))
	if err != nil || d.Rows != 150 {
		t.Fatalf("explore digest = %+v, %v", d, err)
	}
	unaligned := Op{Class: ClassExplore, From: from.Add(7 * time.Minute), To: to.Add(-7 * time.Minute)}
	if msg := o.Verify(unaligned, d); msg != "" {
		t.Errorf("epoch-granular rows rejected: %s", msg)
	}
	if msg := o.Verify(Op{Class: ClassExploreBox, From: from, To: to}, Digest{Rows: 151}); msg == "" {
		t.Error("a boxed exploration may not report more rows than the box-less one")
	}

	// T4 movers and the empty result.
	movers := o.Movers(from, to)
	if len(movers) == 0 {
		t.Fatal("the test trace has callers at several cells")
	}
	body := `{"cols":["a.caller"],"rows":[["` + strings.Join(movers, `"],["`) + `"]]}`
	d, err = DigestBody(ClassT4, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if msg := o.Verify(Op{Class: ClassT4, From: from, To: to}, d); msg != "" {
		t.Errorf("right join rejected: %s", msg)
	}
	d, err = DigestBody(ClassFullRow, []byte(`{"cols":["ts"],"rows":[]}`))
	if err != nil || d.Rows != 0 {
		t.Errorf("empty result: %+v, %v", d, err)
	}
	d, _ = DigestBody(ClassFullRow, []byte(`{"cols":["ts","x"],"rows":[["a","b"],["c","d"],["e","f"]]}`))
	if d.Rows != 3 {
		t.Errorf("full-row count = %d, want 3", d.Rows)
	}
}

func TestScrape(t *testing.T) {
	s, err := ParseScrape([]byte(`[{"name":"a_total","type":"counter","series":[{"labels":{"op":"x"},"value":3},{"labels":{"op":"y"},"value":4}]},
		{"name":"h_seconds","type":"histogram","series":[{"value":0,"count":4,"sum":2.5}]}]`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Total("a_total") != 7 || s.Total("a_total", "op", "y") != 4 || s.Total("missing") != 0 {
		t.Error("Total is wrong")
	}
	if c, sum := s.Hist("h_seconds"); c != 4 || sum != 2.5 {
		t.Errorf("Hist = %d, %v", c, sum)
	}
	if Ratio(3, 1) != 0.75 || Ratio(0, 0) != 0 {
		t.Error("Ratio is wrong")
	}
}

func report(workload string, ops float64) Report {
	return Report{Workload: workload, Result: Result{Metrics: map[string]Value{"ops_s": {Value: ops, Unit: "1/s"}}}}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(w string, base float64) []Report {
		var out []Report
		for i := 0; i < 10; i++ {
			out = append(out, report(w, base*(1+0.002*float64(i))))
		}
		return out
	}
	noisy := func(w string, base float64) []Report {
		var out []Report
		for i := 0; i < 10; i++ {
			out = append(out, report(w, base*(1+0.08*float64(i))))
		}
		return out
	}
	bound := 0.0
	for _, m := range EndToEnd {
		if m.Name == "ops_s" {
			bound = m.Bound
		}
	}
	verdict := func(a, b []Report) string {
		rows := Compare(a, b)
		if len(rows) != 1 {
			t.Fatalf("%d rows, want 1", len(rows))
		}
		return rows[0].Verdict
	}
	if v := verdict(steady("w", 100), steady("w", 100)); v != Unchanged {
		t.Errorf("same runs: %s", v)
	}
	if v := verdict(steady("w", 100), steady("w", 100*(1-bound-0.05))); v != Worse {
		t.Errorf("ops_s lower by more than the bound: %s", v)
	}
	if v := verdict(steady("w", 100), steady("w", 100*(1+bound+0.05))); v != Better {
		t.Errorf("ops_s higher by more than the bound: %s", v)
	}
	// A spread wider than the bound settles nothing, whatever the medians.
	if v := verdict(steady("w", 100), noisy("w", 100)); v != Unresolved {
		t.Errorf("noisy side: %s", v)
	}
	if v := verdict(steady("w", 100)[:1], steady("w", 100)[:1]); v != Single {
		t.Errorf("one run a side: %s", v)
	}
	// Traced runs never count as end-to-end numbers.
	tr := steady("w", 100)
	for i := range tr {
		tr[i].Traced = true
	}
	if rows := Compare(tr, tr); len(rows) != 0 {
		t.Errorf("traced runs compared: %v", rows)
	}
}

// One class of nine twice as slow moves class_p50_gm_ms by 8 %, inside its
// bound: the comparison has to hold each class's median to the bound by
// itself, and the append throughput with it.
func TestCompareGatesEveryClass(t *testing.T) {
	classes := []string{ClassExplore, ClassExploreBox, ClassT1, ClassT2, ClassT2Sel, ClassFullRow, ClassT3, ClassT4, ClassAppend}
	runs := func(t4, rows float64) []Report {
		var out []Report
		for i := 0; i < 10; i++ {
			wobble := 1 + 0.002*float64(i)
			r := Report{Workload: "w", Extra: map[string]float64{"append_rows_s": rows * wobble}}
			var medians []float64
			for _, c := range classes {
				p50 := 10 * wobble
				if c == ClassT4 {
					p50 = t4 * wobble
				}
				r.Classes = append(r.Classes, ClassStats{Class: c, Samples: 50, P50: p50})
				medians = append(medians, p50)
			}
			r.Result.Metrics = map[string]Value{
				"explore_p50_ms":  {Value: 10 * wobble, Unit: "ms"},
				"class_p50_gm_ms": {Value: GeoMean(medians), Unit: "ms"},
			}
			out = append(out, r)
		}
		return out
	}
	verdicts := make(map[string]string)
	for _, row := range Compare(runs(10, 1000), runs(20, 600)) {
		if _, twice := verdicts[row.Metric]; twice {
			t.Errorf("%s compared twice", row.Metric)
		}
		verdicts[row.Metric] = row.Verdict
	}
	want := map[string]string{"class_p50_gm_ms": Unchanged, "explore_p50_ms": Unchanged, "t3_p50_ms": Unchanged,
		"append_p50_ms": Unchanged, "t4_p50_ms": Worse, "append_rows_s": Worse}
	for name, v := range want {
		if verdicts[name] != v {
			t.Errorf("%s: %q, want %q", name, verdicts[name], v)
		}
	}
	if len(verdicts) != 2+len(classes)-1+1 {
		t.Errorf("%d rows: %v", len(verdicts), verdicts)
	}
}

func TestReportFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for i := 0; i < 3; i++ {
		r := report("w", float64(i))
		r.Seed = int64(i)
		if err := AppendReport(path, &r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadReports(path)
	if err != nil || len(got) != 3 || got[2].Seed != 2 {
		t.Fatalf("read back %d reports, %v", len(got), err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables the programs print
// from in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []Metric `json:"end_to_end"`
		PerLayer   []Metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end differs from harness.EndToEnd:\n%v\n%v", bj.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, PerLayer) {
		t.Errorf("per_layer differs from harness.PerLayer")
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("workloads = %v, want %v", names, Workloads)
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]Metric{}, EndToEnd...), PerLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad metric %+v", m)
		}
		seen[m.Name] = true
	}
	for _, m := range EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(PerLayer) > 128 || bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 {
		t.Errorf("limits: %d per-layer metrics, run_seconds %d, paths %v", len(PerLayer), bj.RunSeconds, bj.Paths)
	}
}
