package webui

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"regexp"
	"testing"
	"time"

	"spate/internal/telco"
)

// exploreGoldenDigest is the sha256 of the /api/explore bodies
// TestExploreGolden fetches, as the engine and the 4-shard cluster serve
// them.
const exploreGoldenDigest = "002cdd2aac5cd872d0fe5153f85083bf1465ff1e1e23a64746935d39a46d3d0b"

// volatile matches what an exploration body carries besides its answer:
// whether it came from the cache, its trace id and its stage timings.
var volatile = regexp.MustCompile(`"cache_hit":true|"trace_id":"[^"]*"|"stages_ms":\{[^}]*\}`)

// TestExploreGolden pins the exploration answers byte for byte: over
// seeded windows, boxes and attr= selections on the engine and on the
// 4-shard cluster of TestBackendParity's fixture, the bodies — their cache
// flag, trace id and stage timings zeroed — hash to a fixed digest. A
// change to how summaries are built, merged, restricted or rendered that
// moves any answer shows here.
func TestExploreGolden(t *testing.T) {
	stacks, g, window := newParityStacks(t)
	cells := g.Cells()
	rng := rand.New(rand.NewSource(29))
	attrs := []string{"", "CDR.upflux", "CDR.downflux", "NMS.drop_calls", "NMS.rssi_dbm", "CDR.duration"}
	var paths []string
	for i := 0; i < 12; i++ {
		from := window.From.Add(time.Duration(rng.Intn(80)) * 30 * time.Minute).Add(time.Duration(rng.Intn(30)) * time.Minute)
		to := from.Add(time.Duration(1+rng.Intn(16)) * time.Hour)
		if to.After(window.To) {
			to = window.To
		}
		path := "/api/explore?from=" + from.Format(telco.TimeLayout) + "&to=" + to.Format(telco.TimeLayout)
		if i%3 != 0 {
			// A box around a random cell, a quarter of the plane or less.
			c := cells[rng.Intn(len(cells))].Pt
			r := 2 + 10*rng.Float64()
			path += fmt.Sprintf("&minx=%g&miny=%g&maxx=%g&maxy=%g", c.X-r, c.Y-r, c.X+r, c.Y+r)
		}
		if a := attrs[rng.Intn(len(attrs))]; a != "" {
			path += "&attr=" + a
		}
		paths = append(paths, path)
	}
	h := sha256.New()
	for _, p := range []*parityStack{stacks[0], stacks[2]} {
		for _, path := range paths {
			code, body := p.fetch(t, path, nil)
			if code != 200 {
				t.Fatalf("%s: GET %s: status %d: %s", p.name, path, code, head(body))
			}
			body = volatile.ReplaceAllFunc(body, func(m []byte) []byte {
				switch m[1] {
				case 'c':
					return []byte(`"cache_hit":false`)
				case 't':
					return []byte(`"trace_id":""`)
				}
				return []byte(`"stages_ms":{}`)
			})
			h.Write(binary.AppendUvarint(nil, uint64(len(body))))
			h.Write(body)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != exploreGoldenDigest {
		t.Errorf("digest %s, want %s", got, exploreGoldenDigest)
	}
}

// sqlGoldenDigest is the sha256 of the /api/sql bodies TestSQLGolden
// fetches, as the engine and the 4-shard cluster serve them.
const sqlGoldenDigest = "16b4baf5dcad328360e672c08b2d540705805ba22227a48f3c0e5f163c05a788"

// TestSQLGolden pins SQL answers byte for byte: twelve seeded statements,
// two in each of the benchmark's six shapes (T1 over one epoch, T2, T2 with
// a selective predicate, SELECT *, T3's per-cell aggregate and T4's
// self-join), every window at or across the day boundary so two day-shards
// answer. The engine and the 4-shard cluster of TestBackendParity's fixture
// each answer them, and each body — rows in the order its backend returns
// them — goes into one digest. A change to how rows are scanned, shipped,
// decoded or rendered that moves any answer shows here.
func TestSQLGolden(t *testing.T) {
	stacks, _, window := newParityStacks(t)
	boundary := window.From.Add(24 * time.Hour)
	rng := rand.New(rand.NewSource(30))
	ts := func(x time.Time) string { return x.Format(telco.TimeLayout) }
	var stmts []string
	for i := 0; i < 2; i++ {
		// Up to six hours either side of the boundary, on minute marks.
		from := boundary.Add(-time.Duration(1+rng.Intn(360)) * time.Minute)
		to := boundary.Add(time.Duration(1+rng.Intn(360)) * time.Minute)
		f, u := ts(from), ts(to)
		epoch := boundary.Add(-time.Duration(i) * 30 * time.Minute) // the epoch after, then before, the boundary
		// T4 joins every pair of a caller's calls: a short window keeps it small.
		jf, ju := ts(boundary.Add(-time.Duration(1+rng.Intn(30))*time.Minute)), ts(boundary.Add(time.Duration(1+rng.Intn(30))*time.Minute))
		stmts = append(stmts,
			fmt.Sprintf("SELECT upflux, downflux FROM CDR WHERE ts >= '%s' AND ts < '%s'", ts(epoch), ts(epoch.Add(30*time.Minute))),
			fmt.Sprintf("SELECT upflux, downflux FROM CDR WHERE ts >= '%s' AND ts < '%s'", f, u),
			fmt.Sprintf("SELECT upflux, downflux FROM CDR WHERE ts >= '%s' AND ts < '%s' AND duration > 300", f, u),
			fmt.Sprintf("SELECT * FROM CDR WHERE ts >= '%s' AND ts < '%s'", f, u),
			fmt.Sprintf("SELECT cell_id, SUM(drop_calls) AS drops, SUM(call_attempts) AS attempts FROM NMS WHERE ts >= '%s' AND ts < '%s' GROUP BY cell_id ORDER BY cell_id", f, u),
			fmt.Sprintf("SELECT DISTINCT a.caller FROM CDR a JOIN CDR b ON a.caller = b.caller WHERE a.cell_id != b.cell_id AND a.ts >= '%s' AND a.ts < '%s' AND b.ts >= '%s' AND b.ts < '%s' ORDER BY a.caller", jf, ju, jf, ju))
	}
	h := sha256.New()
	for _, p := range []*parityStack{stacks[0], stacks[2]} {
		for _, q := range stmts {
			code, body := p.fetch(t, "/api/sql?q="+url.QueryEscape(q), nil)
			if code != 200 {
				t.Fatalf("%s: %s: status %d: %s", p.name, q, code, head(body))
			}
			if !bytes.Contains(body, []byte(`"rows":[[`)) {
				t.Fatalf("%s: %s: no rows: %s", p.name, q, head(body))
			}
			h.Write(binary.AppendUvarint(nil, uint64(len(body))))
			h.Write(body)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sqlGoldenDigest {
		t.Errorf("digest %s, want %s", got, sqlGoldenDigest)
	}
}
