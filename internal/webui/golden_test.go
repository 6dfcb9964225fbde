package webui

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
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
