package cluster

import (
	"context"
	"strconv"
	"testing"
	"time"

	"spate/internal/core"
	"spate/internal/obs"
	"spate/internal/telco"
)

// BenchmarkClusterExplore measures scatter-gather exploration latency for a
// single-shard versus a four-shard topology over the same two-day trace,
// and reports how often the hedged replica read beat the primary. Windows
// rotate across iterations so each scatter exercises the shard fan-out
// rather than a single repeated plan; sixteen windows recur, so past the
// first iterations each is served the answer the coordinator keeps.
func BenchmarkClusterExplore(b *testing.B) {
	for _, bc := range []struct {
		name   string
		shards int
	}{
		{"shards=1", 1},
		{"shards=4", 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g, snaps, window := testTrace(b, 2)
			lc := startTestCluster(b, Config{
				Shards:     bc.shards,
				Replicas:   2,
				HedgeDelay: 2 * time.Millisecond,
				Obs:        obs.NewNoop(),
			}, g, snaps)
			ctx := context.Background()

			e0 := telco.EpochOf(window.From)
			span := int(window.To.Sub(window.From) / telco.EpochDuration)
			hedgeWins := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := telco.TimeRange{
					From: (e0 + telco.Epoch(i%8)).Start(),
					To:   (e0 + telco.Epoch(span-i%16)).Start(),
				}
				res, err := lc.Coordinator.Explore(ctx, core.Query{Window: w})
				if err != nil {
					b.Fatal(err)
				}
				hedgeWins += res.HedgeWins
			}
			b.StopTimer()
			b.ReportMetric(float64(hedgeWins)/float64(b.N), "hedgewins/op")
		})
	}
}

// BenchmarkReadExploreFrame prices the coordinator's read of one shard
// frame of parts — a window across a day boundary, as cluster-mix asks —
// decoding every part (a fresh part memo each read) and taking every part
// from a warm memo, whose hit and miss counters report into a noop
// registry or a real one: the difference is what the memo's series cost.
// The explore span's two attributes cost alike in both trees, so the
// last sub-benchmark prices them alone.
func BenchmarkReadExploreFrame(b *testing.B) {
	g, snaps, window := testTrace(b, 2)
	eng := newRefEngine(b, g)
	for _, sn := range snaps {
		if _, err := eng.Ingest(sn); err != nil {
			b.Fatal(err)
		}
	}
	eng.FinishIngest()
	day := window.From.Add(24 * time.Hour)
	req := exploreRequest{FromUnix: day.Add(-3 * time.Hour).Unix(), ToUnix: day.Add(3 * time.Hour).Unix()}
	frame := exploreFrame(b, NewNode(eng), req)
	read := func(b *testing.B, m *partMemo) {
		resp, err := readExploreFrame(frame, m, nil)
		if err != nil || len(resp.Parts) == 0 {
			b.Fatal(len(resp.Parts), err)
		}
	}
	b.Run("decode", func(b *testing.B) {
		for range b.N {
			b.StopTimer()
			m := newPartMemo(obs.NewNoop())
			b.StartTimer()
			read(b, m)
		}
	})
	for name, reg := range map[string]*obs.Registry{"memo/noop": obs.NewNoop(), "memo/registry": obs.NewRegistry()} {
		b.Run(name, func(b *testing.B) {
			m := newPartMemo(reg)
			read(b, m)
			b.ResetTimer()
			for range b.N {
				read(b, m)
			}
		})
	}
	b.Run("span-attrs", func(b *testing.B) {
		_, span := obs.NewTracer(1).StartSpan(context.Background(), "cluster_explore")
		for i := range b.N {
			span.SetAttr("parts_decoded", strconv.Itoa(i%64))
			span.SetAttr("parts_reused", strconv.Itoa(i%64))
		}
	})
}
