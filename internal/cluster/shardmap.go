package cluster

import (
	"fmt"
	"sort"

	"spate/internal/geo"
	"spate/internal/telco"
)

// ShardMap is the partitioning function of the cluster: it assigns every
// snapshot epoch to a time shard (round-robin over contiguous epoch
// blocks) and, when a spatial split is configured, every cell to a
// vertical band of the plane. A (time shard, band) pair is a "slot" — the
// unit a replica group serves.
type ShardMap struct {
	// Shards is the number of time shards N.
	Shards int
	// BlockEpochs is the contiguous epochs per block.
	BlockEpochs int
	// Bands holds the half-open X intervals of the spatial sub-split, in
	// band order; len(Bands) == 1 means no split.
	Bands []Band
}

// Band is one vertical strip [MinX, MaxX) of the cell plane.
type Band struct {
	MinX, MaxX float64
}

// NewShardMap builds the block round-robin map of a config. When
// cfg.SpatialSplit > 1, bands divide [minX, maxX) of the cell inventory
// equally; cells is consulted only for its X extent.
func NewShardMap(cfg Config, cells []geo.Point) *ShardMap {
	cfg = cfg.withDefaults()
	m := &ShardMap{Shards: cfg.Shards, BlockEpochs: cfg.BlockEpochs}
	s := cfg.SpatialSplit
	if s <= 1 || len(cells) == 0 {
		m.Bands = []Band{{MinX: -1e18, MaxX: 1e18}}
		return m
	}
	lo, hi := cells[0].X, cells[0].X
	for _, p := range cells[1:] {
		if p.X < lo {
			lo = p.X
		}
		if p.X > hi {
			hi = p.X
		}
	}
	w := (hi - lo) / float64(s)
	for i := 0; i < s; i++ {
		b := Band{MinX: lo + float64(i)*w, MaxX: lo + float64(i+1)*w}
		if i == 0 {
			b.MinX = -1e18
		}
		if i == s-1 {
			b.MaxX = 1e18
		}
		m.Bands = append(m.Bands, b)
	}
	return m
}

// NumBands returns the spatial fan-out per time shard.
func (m *ShardMap) NumBands() int { return len(m.Bands) }

// NumSlots returns the total slot count (time shards x bands).
func (m *ShardMap) NumSlots() int { return m.Shards * len(m.Bands) }

// Slot flattens a (time shard, band) pair into a slot index.
func (m *ShardMap) Slot(timeShard, band int) int { return timeShard*len(m.Bands) + band }

// SlotShard returns the time shard a slot belongs to.
func (m *ShardMap) SlotShard(slot int) int { return slot / len(m.Bands) }

// TimeShardOf returns the time shard owning an epoch (block round-robin).
func (m *ShardMap) TimeShardOf(e telco.Epoch) int {
	b := int64(e) / int64(m.BlockEpochs)
	return int(((b % int64(m.Shards)) + int64(m.Shards)) % int64(m.Shards))
}

// BandOf returns the band index of a planar location.
func (m *ShardMap) BandOf(pt geo.Point) int {
	for i, b := range m.Bands {
		if pt.X >= b.MinX && pt.X < b.MaxX {
			return i
		}
	}
	return len(m.Bands) - 1
}

// BandsFor returns the band indices a query box intersects; the zero box
// (no spatial predicate) selects every band.
func (m *ShardMap) BandsFor(box geo.Rect) []int {
	out := make([]int, 0, len(m.Bands))
	everywhere := box == (geo.Rect{})
	for i, b := range m.Bands {
		if everywhere || (box.MinX < b.MaxX && b.MinX < box.MaxX) {
			out = append(out, i)
		}
	}
	return out
}

// TimeShardsFor returns the time shards owning data inside w, in shard
// order. Blocks go round-robin, so it walks w's blocks only until every
// shard is seen: a window of years is as cheap as one of Shards blocks.
func (m *ShardMap) TimeShardsFor(w telco.TimeRange) []int {
	if !w.From.Before(w.To) {
		return nil
	}
	seen := make([]bool, m.Shards)
	var out []int
	for b := int64(telco.EpochOf(w.From)) / int64(m.BlockEpochs); len(out) < m.Shards &&
		telco.Epoch(b*int64(m.BlockEpochs)).Start().Before(w.To); b++ {
		if s := m.TimeShardOf(telco.Epoch(b * int64(m.BlockEpochs))); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// OwnedRanges returns the time-ranges of w that timeShard owns, coalesced
// in chronological order — the Missing enumeration a degraded Result
// carries for a failed shard.
func (m *ShardMap) OwnedRanges(timeShard int, w telco.TimeRange) []telco.TimeRange {
	var out []telco.TimeRange
	for _, b := range m.blocksIn(w) {
		if m.TimeShardOf(telco.Epoch(b*int64(m.BlockEpochs))) != timeShard {
			continue
		}
		blockRange := telco.TimeRange{
			From: telco.Epoch(b * int64(m.BlockEpochs)).Start(),
			To:   telco.Epoch((b + 1) * int64(m.BlockEpochs)).Start(),
		}
		r, ok := intersect(blockRange, w)
		if !ok {
			continue
		}
		if n := len(out); n > 0 && out[n-1].To.Equal(r.From) {
			out[n-1].To = r.To // coalesce adjacent blocks
		} else {
			out = append(out, r)
		}
	}
	return out
}

// blocksIn lists the block indices overlapping w in order.
func (m *ShardMap) blocksIn(w telco.TimeRange) []int64 {
	if !w.From.Before(w.To) {
		return nil
	}
	first := int64(telco.EpochOf(w.From)) / int64(m.BlockEpochs)
	var out []int64
	for b := first; telco.Epoch(b * int64(m.BlockEpochs)).Start().Before(w.To); b++ {
		out = append(out, b)
	}
	return out
}

func intersect(a, b telco.TimeRange) (telco.TimeRange, bool) {
	lo, hi := a.From, a.To
	if b.From.After(lo) {
		lo = b.From
	}
	if b.To.Before(hi) {
		hi = b.To
	}
	if !lo.Before(hi) {
		return telco.TimeRange{}, false
	}
	return telco.TimeRange{From: lo, To: hi}, true
}

func (m *ShardMap) validate() error {
	if m.Shards <= 0 {
		return fmt.Errorf("cluster: shard map has no shards")
	}
	if len(m.Bands) == 0 {
		return fmt.Errorf("cluster: shard map has no bands")
	}
	if m.BlockEpochs <= 0 {
		return fmt.Errorf("cluster: shard map needs BlockEpochs")
	}
	return nil
}
