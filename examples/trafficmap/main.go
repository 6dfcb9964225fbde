// Trafficmap: the "automated car traffic mapping system" the paper names
// as future work (§X). Cellular activity is a well-known traffic proxy
// (Reades et al., the paper's [3]): commuters' phones generate records in
// the cells along roads they move through. This example ingests a day,
// derives per-cell activity deltas between morning and night from the
// highlights cube, and reports the corridors with the strongest commuter
// signature plus subscriber flows detected via SPATE-SQL self-joins.
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"time"

	"spate"
)

func main() {
	dir, err := os.MkdirTemp("", "spate-traffic-*")
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

	start := g.Config().Start
	first := spate.EpochOf(start)
	fmt.Println("ingesting one day of traffic...")
	for e := first; e < first+48; e++ {
		s := spate.NewSnapshot(e)
		s.Add(g.CDRTable(e))
		s.Add(g.NMSTable(e))
		if _, err := eng.Ingest(s); err != nil {
			log.Fatal(err)
		}
	}
	eng.FinishIngest()

	// Activity per cell in the rush window vs the quiet window.
	rush, err := eng.Explore(spate.Query{
		Window: spate.NewTimeRange(start.Add(7*time.Hour), start.Add(10*time.Hour)),
	})
	if err != nil {
		log.Fatal(err)
	}
	quiet, err := eng.Explore(spate.Query{
		Window: spate.NewTimeRange(start.Add(1*time.Hour), start.Add(4*time.Hour)),
	})
	if err != nil {
		log.Fatal(err)
	}
	quietRows := map[int64]int64{}
	for _, cs := range quiet.Cells {
		quietRows[cs.CellID] = cs.Rows
	}
	type corridor struct {
		cell  int64
		loc   spate.Point
		ratio float64
		rush  int64
	}
	var cs []corridor
	for _, c := range rush.Cells {
		q := quietRows[c.CellID]
		if q == 0 {
			q = 1
		}
		if c.Rows >= 5 {
			cs = append(cs, corridor{c.CellID, c.Loc, float64(c.Rows) / float64(q), c.Rows})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].ratio > cs[j].ratio })
	fmt.Printf("\ntop commuter corridors (rush 07-10h vs night 01-04h, %d candidate cells):\n", len(cs))
	for i, c := range cs {
		if i >= 8 {
			break
		}
		fmt.Printf("  cell %d at (%.1f, %.1f) km: %.1fx activity (%d rush records)\n",
			c.cell, c.loc.X, c.loc.Y, c.ratio, c.rush)
	}

	// Subscriber flows: movers between cell towers during the rush window,
	// via the T4-style self-join in SPATE-SQL.
	sql := spate.NewSQL(eng)
	from := start.Format("20060102150405")
	to := start.Add(24 * time.Hour).Format("20060102150405")
	rs, err := sql.Query(fmt.Sprintf(`
		SELECT a.cell_id, b.cell_id, COUNT(*) AS flows
		FROM CDR a JOIN CDR b ON a.caller = b.caller
		WHERE a.cell_id != b.cell_id
		  AND a.ts >= '%s' AND a.ts < '%s'
		  AND b.ts >= '%s' AND b.ts < '%s'
		  AND a.ts < b.ts
		GROUP BY a.cell_id, b.cell_id
		ORDER BY flows DESC LIMIT 5`, from, to, from, to))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstrongest origin->destination flows (whole day):")
	for _, row := range rs.Rows {
		a, b := row[0].Int64(), row[1].Int64()
		la, _ := eng.Cells().Location(a)
		lb, _ := eng.Cells().Location(b)
		dist := math.Hypot(la.X-lb.X, la.Y-lb.Y)
		fmt.Printf("  %d -> %d: %s trips (%.1f km apart)\n", a, b, row[2].Format(), dist)
	}
	fmt.Println("\n(cell-to-cell flow volumes are the raw material of an automated")
	fmt.Println(" road traffic map — the §X future-work scenario)")
}
