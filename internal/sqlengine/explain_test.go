package sqlengine

import (
	"strings"
	"testing"
)

func planOf(t *testing.T, sql string) []string {
	t.Helper()
	rs := mustQuery(t, sql)
	if len(rs.Cols) != 1 || rs.Cols[0] != "plan" {
		t.Fatalf("explain columns = %v", rs.Cols)
	}
	lines := make([]string, 0, len(rs.Rows))
	for _, r := range rs.Rows {
		lines = append(lines, r[0].Format())
	}
	return lines
}

func TestExplainPlanLines(t *testing.T) {
	lines := planOf(t, `EXPLAIN SELECT caller, SUM(duration) FROM CDR
		WHERE ts >= '201601221530' AND ts < '201601221630' AND call_type = 'VOICE'
		GROUP BY caller HAVING SUM(duration) > 10 ORDER BY caller LIMIT 5`)
	wantPrefixes := []string{
		"SCAN CDR [ts pushdown ",
		"FILTER ",
		"AGGREGATE GROUP BY caller",
		"HAVING ",
		"ORDER BY caller",
		"LIMIT 5",
	}
	if len(lines) != len(wantPrefixes) {
		t.Fatalf("plan = %q, want %d lines", lines, len(wantPrefixes))
	}
	for i, p := range wantPrefixes {
		if !strings.HasPrefix(lines[i], p) {
			t.Errorf("plan line %d = %q, want prefix %q", i, lines[i], p)
		}
	}
}

func TestExplainFullScanWithoutPushdown(t *testing.T) {
	lines := planOf(t, `EXPLAIN SELECT caller FROM CDR`)
	if len(lines) != 1 || lines[0] != "SCAN CDR [full scan]" {
		t.Fatalf("plan = %q", lines)
	}
}

func TestExplainJoinPlan(t *testing.T) {
	lines := planOf(t, `EXPLAIN SELECT c.caller FROM CDR AS c JOIN NMS AS n ON c.cell_id = n.cell_id`)
	if len(lines) < 2 {
		t.Fatalf("plan = %q", lines)
	}
	if !strings.HasPrefix(lines[0], "SCAN CDR AS c") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "JOIN NMS AS n") || !strings.Contains(lines[1], " ON ") {
		t.Errorf("line 1 = %q", lines[1])
	}
}

// TestExplainAnalyzeExecutes checks ANALYZE actually runs the statement and
// appends rows and wall time; MemCatalog has no profiler, so no storage
// lines appear.
func TestExplainAnalyzeExecutes(t *testing.T) {
	lines := planOf(t, `EXPLAIN ANALYZE SELECT caller FROM CDR WHERE call_type = 'VOICE'`)
	var rows, timing bool
	for _, ln := range lines {
		if ln == "rows: 3" {
			rows = true
		}
		if strings.HasPrefix(ln, "time: ") && strings.HasSuffix(ln, " ms") {
			timing = true
		}
	}
	if !rows || !timing {
		t.Fatalf("analyze output missing rows/time lines: %q", lines)
	}
}

// TestExplainIsNotAnalyze: plain EXPLAIN must not execute the query, so no
// rows/time report appears.
func TestExplainIsNotAnalyze(t *testing.T) {
	for _, ln := range planOf(t, `EXPLAIN SELECT caller FROM CDR`) {
		if strings.HasPrefix(ln, "rows: ") || strings.HasPrefix(ln, "time: ") {
			t.Fatalf("EXPLAIN executed the query: %q", ln)
		}
	}
}

// TestExplainPrintsTheScanWindow: the SCAN line prints the window the scan
// is pushed down — the one the hint and the spec carry, in whole seconds —
// with a side no conjunct bounds left out.
func TestExplainPrintsTheScanWindow(t *testing.T) {
	for sql, want := range map[string]string{
		`EXPLAIN SELECT COUNT(*) FROM CDR WHERE ts < '2016'`:                                         "SCAN CDR [ts pushdown ts < 2016-01-01T00:00:00]",
		`EXPLAIN SELECT COUNT(*) FROM CDR WHERE ts <= '201601181030'`:                                "SCAN CDR [ts pushdown ts < 2016-01-18T10:30:00]",
		`EXPLAIN SELECT COUNT(*) FROM CDR WHERE ts <= '20160118103000'`:                              "SCAN CDR [ts pushdown ts < 2016-01-18T10:30:01]",
		`EXPLAIN SELECT COUNT(*) FROM CDR WHERE ts >= '1600'`:                                        "SCAN CDR [ts pushdown 1600-01-01T00:00:00 <= ts]",
		`EXPLAIN SELECT COUNT(*) FROM CDR WHERE ts >= '201601221530' AND ts < '201601221630'`:        "SCAN CDR [ts pushdown 2016-01-22T15:30:00 <= ts < 2016-01-22T16:30:00]",
		`EXPLAIN SELECT c.caller FROM CDR c JOIN NMS n ON c.cell_id = n.cell_id WHERE n.ts > '2016'`: "SCAN CDR AS c [full scan]",
	} {
		if got := planOf(t, sql)[0]; got != want {
			t.Errorf("%s:\n plan %q\n want %q", sql, got, want)
		}
	}
	lines := planOf(t, `EXPLAIN SELECT c.caller FROM CDR c JOIN NMS n ON c.cell_id = n.cell_id WHERE n.ts > '2016'`)
	if want := "JOIN NMS AS n [ts pushdown 2016-01-01T00:00:00 <= ts] ON (c.cell_id = n.cell_id)"; lines[1] != want {
		t.Errorf("join line %q, want %q", lines[1], want)
	}
}
