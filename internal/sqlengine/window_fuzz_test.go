package sqlengine

import (
	"testing"
	"time"

	"spate/internal/scanspec"
	"spate/internal/telco"
)

// FuzzTSWindow checks the ts window derivation against the row evaluator:
// for a random comparison "ts <op> 'lit'" (or the literal on the left) and
// a random row timestamp, a row the evaluator keeps lies inside the derived
// window, and where the comparison was captured the window keeps exactly
// the rows the evaluator keeps — before the year 10000, past which the
// window never prunes.
func FuzzTSWindow(f *testing.F) {
	day := time.Date(2016, 1, 18, 10, 30, 0, 0, time.UTC).Unix()
	for _, lit := range []string{"2016", "201601", "20160118", "2016011810", "201601181030", "20160118103000",
		"1600", "2100", "2300", "0999", "99991231235959", "2016011810303", "20161301", "x016"} {
		for op := range tsOps {
			f.Add(uint8(op), lit, day, false)
			f.Add(uint8(op), lit, day+59, true)
		}
	}
	f.Add(uint8(2), "2300", time.Date(2150, 1, 18, 0, 0, 0, 0, time.UTC).Unix(), false)
	f.Add(uint8(5), "1600", time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), false)
	f.Add(uint8(2), "2016", time.Date(12016, 1, 18, 0, 0, 0, 0, time.UTC).Unix(), false)
	f.Add(uint8(4), "2016", time.Date(-5, 1, 18, 0, 0, 0, 0, time.UTC).Unix(), true)

	schema := telco.MustSchema("T", []telco.Field{{Name: telco.AttrTS, Kind: telco.KindTime}})
	ev := &evaluator{scope: &scope{bindings: []binding{{name: "T", schema: schema}}}}
	// Rows span the years -9999 to 99999.
	lo, hi := time.Date(-9999, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), time.Date(99999, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	f.Fuzz(func(t *testing.T, op uint8, lit string, sec int64, litLeft bool) {
		if sec < lo || sec >= hi {
			sec = lo + (sec%(hi-lo)+(hi-lo))%(hi-lo)
		}
		cond := &Binary{Op: tsOps[int(op)%len(tsOps)], Left: &ColumnRef{Name: telco.AttrTS}, Right: &Literal{Str: lit, IsStr: true}}
		if litLeft {
			cond.Left, cond.Right, cond.Op = cond.Right, cond.Left, flip(cond.Op)
		}
		cj := decomposeWhere(cond, "T", schema)
		keep, err := ev.evalBool(ev.bind(cond), []telco.Value{telco.Time(time.Unix(sec, 0))})
		if err != nil {
			t.Fatal(err)
		}
		in := cj.win.Contains(sec)
		if keep && !in {
			t.Fatalf("%s keeps the row at %d, outside the window %+v", cond.exprString(), sec, cj.win)
		}
		if cj.full && sec < scanspec.MaxWireSec && in != keep {
			t.Fatalf("%s: captured window %+v keeps the row at %d: %v, the evaluator: %v", cond.exprString(), cj.win, sec, in, keep)
		}
	})
}

// tsOps are the comparison operators a ts conjunct may use.
var tsOps = []string{"=", "!=", "<", "<=", ">", ">="}
