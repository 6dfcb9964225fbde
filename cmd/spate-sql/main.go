// Command spate-sql is the SPATE-SQL declarative exploration interface
// (paper §VI-B, the Apache Hue role): a small REPL executing SELECT
// statements directly against the compressed SPATE representation of a
// trace. The trace is loaded (and compressed into an in-memory-rooted
// store) at startup.
//
// Usage:
//
//	spate-sql -trace /tmp/trace
//	spate-sql -scale 0.01 -days 1         # synthesize on the fly
//	echo "SELECT COUNT(*) FROM CDR" | spate-sql -scale 0.005 -days 1
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"spate/internal/core"
	"spate/internal/dfs"
	"spate/internal/gen"
	"spate/internal/snapshot"
	"spate/internal/sqlengine"
	"spate/internal/tasks"
	"spate/internal/telco"
	"spate/internal/tracedir"
)

func main() {
	var (
		trace   = flag.String("trace", "", "trace directory from spate-gen (optional)")
		scale   = flag.Float64("scale", 0.005, "synthesized trace scale when -trace is absent")
		days    = flag.Int("days", 1, "synthesized trace length in days")
		store   = flag.String("store", "", "store directory (default: a temp dir)")
		profile = flag.Bool("profile", false, "print the storage cost profile after each query")
		workers = flag.Int("scan-workers", 0,
			"width of the per-query worker pool for leaf scans (0 = GOMAXPROCS; 1 = a pool of one)")
	)
	flag.Parse()

	dir := *store
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "spate-sql-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
	}
	fs, err := dfs.NewCluster(dir, dfs.Config{})
	if err != nil {
		fatal(err)
	}

	opts := core.Options{ScanWorkers: *workers}
	var eng *core.Engine
	start := time.Now()
	if *trace != "" {
		eng, err = loadTrace(fs, *trace, opts)
	} else {
		eng, err = synthesize(fs, *scale, *days, opts)
	}
	if err != nil {
		fatal(err)
	}
	cat := tasks.Catalog(tasks.Spate{E: eng})
	sql := sqlengine.NewEngine(cat)
	st := eng.Tree().Stats()
	fmt.Printf("spate-sql: %d snapshots loaded in %v; tables: CDR, NMS, CELL\n",
		st.Leaves, time.Since(start).Round(time.Millisecond))
	fmt.Println(`type SQL statements terminated by ';' — e.g.
  SELECT cell_id, SUM(drop_calls) FROM NMS GROUP BY cell_id ORDER BY cell_id LIMIT 5;
\q quits.`)

	repl(sql, cat, *profile)
}

func loadTrace(fs *dfs.Cluster, trace string, opts core.Options) (*core.Engine, error) {
	cells, err := tracedir.ReadCells(trace)
	if err != nil {
		return nil, err
	}
	eng, err := core.Open(fs, cells, opts)
	if err != nil {
		return nil, err
	}
	epochs, err := tracedir.Epochs(trace)
	if err != nil {
		return nil, err
	}
	for _, e := range epochs {
		sn, err := tracedir.ReadSnapshot(trace, e)
		if err != nil {
			return nil, err
		}
		if _, err := eng.Ingest(sn); err != nil {
			return nil, err
		}
	}
	eng.FinishIngest()
	return eng, nil
}

func synthesize(fs *dfs.Cluster, scale float64, days int, opts core.Options) (*core.Engine, error) {
	g := gen.New(gen.DefaultConfig(scale))
	eng, err := core.Open(fs, g.CellTable(), opts)
	if err != nil {
		return nil, err
	}
	e0 := telco.EpochOf(g.Config().Start)
	for i := 0; i < days*telco.EpochsPerDay; i++ {
		e := e0 + telco.Epoch(i)
		sn := snapshot.New(e)
		sn.Add(g.CDRTable(e))
		sn.Add(g.NMSTable(e))
		if _, err := eng.Ingest(sn); err != nil {
			return nil, err
		}
	}
	eng.FinishIngest()
	return eng, nil
}

func repl(sql *sqlengine.Engine, cat sqlengine.Catalog, profile bool) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var stmt strings.Builder
	prompt := "spate-sql> "
	fmt.Print(prompt)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == `\q` {
			return
		}
		stmt.WriteString(line)
		stmt.WriteByte('\n')
		if !strings.Contains(line, ";") {
			fmt.Print("      ...> ")
			continue
		}
		run(sql, cat, profile, stmt.String())
		stmt.Reset()
		fmt.Print(prompt)
	}
}

func run(sql *sqlengine.Engine, cat sqlengine.Catalog, profile bool, stmt string) {
	stmt = strings.TrimSpace(stmt)
	stmt = strings.TrimSuffix(stmt, ";")
	if stmt == "" {
		return
	}
	ctx := context.Background()
	var render func() []string
	if profile {
		if pp, ok := cat.(sqlengine.ExplainProfiler); ok {
			ctx, render = pp.WithProfile(ctx)
		}
	}
	start := time.Now()
	rs, err := sql.QueryContext(ctx, stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printResult(rs)
	fmt.Printf("(%d rows in %v)\n", len(rs.Rows), time.Since(start).Round(time.Millisecond))
	if render != nil {
		for _, l := range render() {
			fmt.Println("  -- " + l)
		}
	}
}

func printResult(rs *sqlengine.ResultSet) {
	widths := make([]int, len(rs.Cols))
	for i, c := range rs.Cols {
		widths[i] = len(c)
	}
	const maxRows = 50
	shown := rs.Rows
	if len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	cells := make([][]string, len(shown))
	for r, row := range shown {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			cells[r][i] = v.Format()
			if len(cells[r][i]) > widths[i] {
				widths[i] = len(cells[r][i])
			}
		}
	}
	line := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				fmt.Print(" | ")
			}
			fmt.Printf("%-*s", widths[i], v)
		}
		fmt.Println()
	}
	line(rs.Cols)
	seps := make([]string, len(rs.Cols))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range cells {
		line(r)
	}
	if len(rs.Rows) > maxRows {
		fmt.Printf("... %d more rows\n", len(rs.Rows)-maxRows)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spate-sql:", err)
	os.Exit(1)
}
