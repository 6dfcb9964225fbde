package sqlengine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"spate/internal/telco"
)

// BenchmarkProjectFullRow runs the benchmark's fullrow class — SELECT *
// over a time range, rechecked row by row against two canonical time
// literals — on 4096 CDR rows, all of them inside the range: the WHERE
// re-check and the projection of every row at full width.
func BenchmarkProjectFullRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tab := telco.NewTable(cdrSchema)
	for i := 0; i < 4096; i++ {
		tab.Append(telco.Record{
			telco.Time(t0.Add(time.Duration(rng.Intn(1800)) * time.Second)),
			telco.String(fmt.Sprintf("user%04d", rng.Intn(1000))), telco.Int(1000 + rng.Int63n(1130)),
			telco.String("VOICE"), telco.Int(rng.Int63n(600)), telco.Int(rng.Int63n(1e6)), telco.Int(rng.Int63n(1e6)),
		})
	}
	q := fmt.Sprintf("SELECT * FROM CDR WHERE ts >= '%s' AND ts < '%s'",
		t0.Format(telco.TimeLayout), t0.Add(30*time.Minute).Format(telco.TimeLayout))
	eng := NewEngine(MemCatalog{"CDR": tab})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := eng.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Rows) != 4096 {
			b.Fatalf("%d rows", len(rs.Rows))
		}
	}
}
