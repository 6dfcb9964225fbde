// Citypulse: the smart-city / emergency-response scenario the paper's
// introduction motivates. A day of network traffic is ingested; the
// operator then looks for drop-call hotspots — cells whose drop rate is
// anomalously high — and renders an ASCII heatmap of traffic intensity
// over the ~6000 km^2 service region (the SPATE-UI, terminal edition).
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"spate"
)

func main() {
	dir, err := os.MkdirTemp("", "spate-citypulse-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fs, err := spate.NewCluster(dir, spate.ClusterConfig{})
	if err != nil {
		log.Fatal(err)
	}
	g := spate.NewGenerator(spate.GeneratorConfig(0.01))
	eng, err := spate.Open(fs, g.CellTable(), spate.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// One full day.
	start := g.Config().Start
	first := spate.EpochOf(start)
	fmt.Println("ingesting one day of telco traffic...")
	for e := first; e < first+48; e++ {
		s := spate.NewSnapshot(e)
		s.Add(g.CDRTable(e))
		s.Add(g.NMSTable(e))
		if _, err := eng.Ingest(s); err != nil {
			log.Fatal(err)
		}
	}
	eng.FinishIngest()

	// Morning rush hour over the whole region.
	window := spate.NewTimeRange(start.Add(8*time.Hour), start.Add(11*time.Hour))
	res, err := eng.Explore(spate.Query{Window: window})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n08:00-11:00: %d records across %d active cells\n\n", res.Summary.Rows, len(res.Cells))

	// ASCII heatmap: bucket cell activity onto a 40x20 grid.
	const gw, gh = 40, 20
	grid := make([][]float64, gh)
	for i := range grid {
		grid[i] = make([]float64, gw)
	}
	region := g.Config().Region
	var maxV float64
	for _, cs := range res.Cells {
		gx := int((cs.Loc.X - region.MinX) / (region.MaxX - region.MinX) * gw)
		gy := int((cs.Loc.Y - region.MinY) / (region.MaxY - region.MinY) * gh)
		if gx >= gw {
			gx = gw - 1
		}
		if gy >= gh {
			gy = gh - 1
		}
		grid[gy][gx] += float64(cs.Rows)
		if grid[gy][gx] > maxV {
			maxV = grid[gy][gx]
		}
	}
	shades := []rune(" .:-=+*#%@")
	fmt.Println("traffic heatmap (each char ~ 2x3.75 km):")
	for y := gh - 1; y >= 0; y-- {
		for x := 0; x < gw; x++ {
			v := 0.0
			if maxV > 0 {
				v = math.Sqrt(grid[y][x] / maxV)
			}
			idx := int(v * float64(len(shades)-1))
			fmt.Print(string(shades[idx]))
		}
		fmt.Println()
	}

	// Drop-call hotspots: per-cell drop counters from the highlights cube.
	type hotspot struct {
		cell  int64
		loc   spate.Point
		drops float64
		rows  int64
	}
	// The cells' views share the answer's attribute dictionary: find the
	// drop counter in it once, then read each cell's sum by its position.
	drop := slices.Index(res.Summary.Num().Dict(), spate.AttrRef{Table: "NMS", Attr: "drop_calls"})
	var hs []hotspot
	for _, cs := range res.Cells {
		if sum, _, ok := cs.Attr.Sum(drop); ok && sum > 0 {
			hs = append(hs, hotspot{cs.CellID, cs.Loc, sum, cs.Rows})
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].drops > hs[j].drops })
	fmt.Println("\ntop drop-call hotspots (morning window):")
	for i, h := range hs {
		if i >= 5 {
			break
		}
		fmt.Printf("  cell %d at (%.1f, %.1f) km: %.0f dropped calls over %d records\n",
			h.cell, h.loc.X, h.loc.Y, h.drops, h.rows)
	}

	// Zoom in on the worst hotspot — a narrowed query served from cache
	// context or fresh aggregates.
	if len(hs) > 0 {
		h := hs[0]
		box := spate.NewRect(h.loc.X-3, h.loc.Y-3, h.loc.X+3, h.loc.Y+3)
		zoom, err := eng.Explore(spate.Query{Window: window, Box: box})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nzoom on hotspot cell %d (6x6 km): %d records, %d cells\n",
			h.cell, zoom.Summary.Rows, len(zoom.Cells))
		for _, hl := range zoom.Highlights {
			if hl.Value != "" {
				fmt.Printf("  rare event: %s=%q x%d\n", hl.Attr, hl.Value, hl.Count)
			}
		}
	}
}
