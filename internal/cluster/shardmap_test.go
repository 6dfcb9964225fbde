package cluster

import (
	"reflect"
	"testing"
	"time"

	"spate/internal/geo"
	"spate/internal/telco"
)

func day(n int) time.Time {
	return time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

func TestTimeShardRoundRobin(t *testing.T) {
	m := NewShardMap(Config{Shards: 4}, nil)
	if m.BlockEpochs != telco.EpochsPerDay {
		t.Fatalf("BlockEpochs = %d, want %d", m.BlockEpochs, telco.EpochsPerDay)
	}
	// Every epoch of one day lands on one shard; consecutive days rotate.
	for d := 0; d < 8; d++ {
		want := m.TimeShardOf(telco.EpochOf(day(d)))
		for e := 0; e < telco.EpochsPerDay; e++ {
			got := m.TimeShardOf(telco.EpochOf(day(d)) + telco.Epoch(e))
			if got != want {
				t.Fatalf("day %d epoch %d: shard %d, want %d", d, e, got, want)
			}
		}
		next := m.TimeShardOf(telco.EpochOf(day(d + 1)))
		if next != (want+1)%4 {
			t.Fatalf("day %d shard %d, day %d shard %d: not round-robin", d, want, d+1, next)
		}
	}
}

func TestTimeShardsFor(t *testing.T) {
	m := NewShardMap(Config{Shards: 4}, nil)
	w := telco.TimeRange{From: day(0), To: day(2)} // two days, two shards
	got := m.TimeShardsFor(w)
	if len(got) != 2 {
		t.Fatalf("TimeShardsFor(%v) = %v, want 2 shards", w, got)
	}
	all := m.TimeShardsFor(telco.TimeRange{From: day(0), To: day(10)})
	if !reflect.DeepEqual(all, []int{0, 1, 2, 3}) {
		t.Fatalf("TimeShardsFor(10 days) = %v, want all shards", all)
	}
	if got := m.TimeShardsFor(telco.TimeRange{From: day(1), To: day(1)}); got != nil {
		t.Fatalf("empty window selected shards %v", got)
	}
}

func TestOwnedRangesCoalesce(t *testing.T) {
	// With 2 shards, shard owning day 0 also owns day 2: disjoint ranges.
	m := NewShardMap(Config{Shards: 2}, nil)
	s0 := m.TimeShardOf(telco.EpochOf(day(0)))
	w := telco.TimeRange{From: day(0), To: day(3)}
	got := m.OwnedRanges(s0, w)
	want := []telco.TimeRange{
		{From: day(0), To: day(1)},
		{From: day(2), To: day(3)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("OwnedRanges = %v, want %v", got, want)
	}
	// A single shard owns every day: the whole window coalesces to one range.
	m1 := NewShardMap(Config{Shards: 1}, nil)
	got = m1.OwnedRanges(0, w)
	if !reflect.DeepEqual(got, []telco.TimeRange{w}) {
		t.Fatalf("OwnedRanges single shard = %v, want [%v]", got, w)
	}
	// Window edges inside blocks clip to the window.
	half := day(0).Add(12 * time.Hour)
	got = m.OwnedRanges(s0, telco.TimeRange{From: half, To: day(1)})
	if !reflect.DeepEqual(got, []telco.TimeRange{{From: half, To: day(1)}}) {
		t.Fatalf("clipped OwnedRanges = %v", got)
	}
	// A shard owning nothing in the window reports nothing.
	s1 := (s0 + 1) % 2
	if got := m.OwnedRanges(s1, telco.TimeRange{From: day(0), To: day(1)}); got != nil {
		t.Fatalf("foreign shard owns %v", got)
	}
}

func TestSpatialBands(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 10, Y: 5}, {X: 20, Y: 9}}
	m := NewShardMap(Config{Shards: 2, SpatialSplit: 2}, pts)
	if m.NumBands() != 2 || m.NumSlots() != 4 {
		t.Fatalf("bands=%d slots=%d", m.NumBands(), m.NumSlots())
	}
	if b := m.BandOf(geo.Point{X: 3, Y: 1}); b != 0 {
		t.Fatalf("BandOf(x=3) = %d, want 0", b)
	}
	if b := m.BandOf(geo.Point{X: 17, Y: 1}); b != 1 {
		t.Fatalf("BandOf(x=17) = %d, want 1", b)
	}
	// Outliers clamp to the edge bands rather than dropping.
	if b := m.BandOf(geo.Point{X: -100, Y: 0}); b != 0 {
		t.Fatalf("BandOf(x=-100) = %d, want 0", b)
	}
	if b := m.BandOf(geo.Point{X: 999, Y: 0}); b != 1 {
		t.Fatalf("BandOf(x=999) = %d, want 1", b)
	}
	// A box inside the left band fans out to band 0 only; the zero box to all.
	if got := m.BandsFor(geo.NewRect(1, 0, 4, 4)); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("BandsFor(left box) = %v", got)
	}
	if got := m.BandsFor(geo.Rect{}); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("BandsFor(everywhere) = %v", got)
	}
	if got := m.BandsFor(geo.NewRect(5, 0, 15, 9)); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("BandsFor(straddling box) = %v", got)
	}
}

func TestSlotFlattening(t *testing.T) {
	pts := []geo.Point{{X: 0}, {X: 30}}
	m := NewShardMap(Config{Shards: 3, SpatialSplit: 2}, pts)
	seen := make(map[int]bool)
	for s := 0; s < 3; s++ {
		for b := 0; b < 2; b++ {
			slot := m.Slot(s, b)
			if seen[slot] {
				t.Fatalf("slot %d assigned twice", slot)
			}
			seen[slot] = true
			if m.SlotShard(slot) != s {
				t.Fatalf("SlotShard(%d) = %d, want %d", slot, m.SlotShard(slot), s)
			}
		}
	}
	if len(seen) != m.NumSlots() {
		t.Fatalf("%d distinct slots, want %d", len(seen), m.NumSlots())
	}
}
