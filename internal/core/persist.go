package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"time"

	"spate/internal/highlights"
	"spate/internal/index"
	"spate/internal/telco"
)

// The engine persists enough state on the DFS to survive a restart:
//
//	/spate/meta/leaf/<epoch>      gob leafMeta per ingested snapshot
//	/spate/index/<level>/<start>  highlight summary per sealed node, in its
//	                              binary encoding (highlights.Summary.Encode;
//	                              stores written before it hold gob, which
//	                              highlights.Decode still reads)
//
// Open detects leaf metadata on the cluster and rebuilds the temporal
// index from it (recovery), loading sealed summaries back into the tree.
// The data files themselves are already durable (replicated blocks), so a
// recovered engine serves the same queries as the original.

// leafMeta is the per-snapshot ingestion record.
type leafMeta struct {
	Epoch     telco.Epoch
	Refs      map[string]string
	RawBytes  int64
	CompBytes int64
}

func leafMetaPath(e telco.Epoch) string {
	return "/spate/meta/leaf/" + e.String()
}

func summaryPath(level index.Level, start time.Time) string {
	return fmt.Sprintf("/spate/index/%s/%s", level, start.Format(telco.TimeLayout))
}

// persistLeafMeta records one ingested snapshot.
func (e *Engine) persistLeafMeta(m leafMeta) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return fmt.Errorf("core: encode leaf meta: %w", err)
	}
	if err := e.fs.WriteFile(leafMetaPath(m.Epoch), buf.Bytes()); err != nil {
		return fmt.Errorf("core: persist leaf meta: %w", err)
	}
	return nil
}

// persistSummary stores a sealed node's summary; existing files (e.g. a
// day re-sealed after FinishIngest) are replaced.
func (e *Engine) persistSummary(n *index.Node) error {
	data, err := n.Summary.Encode()
	if err != nil {
		return err
	}
	path := summaryPath(n.Level, n.Period.From)
	if e.fs.Exists(path) {
		if err := e.fs.Delete(path); err != nil {
			return fmt.Errorf("core: replace summary: %w", err)
		}
	}
	if err := e.fs.WriteFile(path, data); err != nil {
		return fmt.Errorf("core: persist summary: %w", err)
	}
	return nil
}

// summaryFileInfo parses one persisted summary path.
type summaryFileInfo struct {
	level index.Level
	start time.Time
	path  string
}

// listSummaryFiles parses /spate/index/<level>/<start> paths.
func (e *Engine) listSummaryFiles() []summaryFileInfo {
	var out []summaryFileInfo
	for _, name := range []struct {
		prefix string
		level  index.Level
	}{
		{"/spate/index/year/", index.LevelYear},
		{"/spate/index/month/", index.LevelMonth},
		{"/spate/index/day/", index.LevelDay},
	} {
		for _, fi := range e.fs.List(name.prefix) {
			stamp := fi.Path[len(name.prefix):]
			t, err := time.ParseInLocation(telco.TimeLayout, stamp, time.UTC)
			if err != nil {
				continue
			}
			out = append(out, summaryFileInfo{level: name.level, start: t, path: fi.Path})
		}
	}
	// Temporal order; coarser levels first at equal starts so ancestors
	// graft before descendants.
	sort.Slice(out, func(i, j int) bool {
		if !out[i].start.Equal(out[j].start) {
			return out[i].start.Before(out[j].start)
		}
		return out[i].level < out[j].level
	})
	return out
}

// recover rebuilds the index from persisted metadata. Called by Open when
// the cluster already carries SPATE state.
func (e *Engine) recover() error {
	metas := e.fs.List("/spate/meta/leaf/")
	summaries := e.listSummaryFiles()
	if len(metas) == 0 && len(summaries) == 0 {
		return nil
	}
	// Graft summary-only nodes first (they are never newer than surviving
	// leaves: decay prunes oldest-first).
	for _, sf := range summaries {
		if _, err := e.tree.EnsurePeriod(sf.level, sf.start); err != nil {
			return fmt.Errorf("core: recover graft %s: %w", sf.path, err)
		}
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Path < metas[j].Path })
	for _, fi := range metas {
		data, err := e.fs.ReadFile(fi.Path)
		if err != nil {
			return fmt.Errorf("core: recover %s: %w", fi.Path, err)
		}
		var m leafMeta
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
			return fmt.Errorf("core: recover %s: %w", fi.Path, err)
		}
		leaf, _, err := e.tree.Append(m.Epoch, m.Refs, m.CompBytes, m.RawBytes)
		if err != nil {
			return fmt.Errorf("core: recover %s: %w", fi.Path, err)
		}
		// Snapshots whose data decayed after the meta was written recover
		// as decayed leaves.
		decayed := false
		for _, ref := range m.Refs {
			if !e.fs.Exists(ref) {
				decayed = true
				break
			}
		}
		if decayed {
			leaf.Decayed = true
			leaf.DataRefs = nil
		}
		e.rawBytes += m.RawBytes
		e.compBytes += m.CompBytes
	}
	// Reload sealed summaries.
	var loadErr error
	e.tree.Walk(func(n *index.Node) bool {
		if n.IsLeaf() || n.Level == index.LevelRoot {
			return true
		}
		path := summaryPath(n.Level, n.Period.From)
		if !e.fs.Exists(path) {
			return true
		}
		data, err := e.fs.ReadFile(path)
		if err != nil {
			loadErr = fmt.Errorf("core: recover summary %s: %w", path, err)
			return false
		}
		s, err := highlights.Decode(data)
		if err != nil {
			loadErr = fmt.Errorf("core: recover summary %s: %w", path, err)
			return false
		}
		n.Summary = s
		return true
	})
	if loadErr != nil {
		return loadErr
	}
	// The right-most path may still grow after recovery (the trace can
	// continue); drop any summaries loaded for those open periods — they
	// could be stale partial seals from a FinishIngest — and let the next
	// rollover re-seal them from data.
	for _, n := range e.tree.FinishIngest() {
		n.Summary = nil
	}
	return nil
}

// cleanupLeafMeta removes the persisted metadata of pruned epochs so a
// recovery after deep decay does not resurrect pruned subtrees' leaves as
// index entries beyond what the live tree holds. Leaves that merely
// decayed keep their meta (the index entry survives decay). Safe without
// the caller holding the engine lock: the listing is taken before the
// live-set walk, and ingest appends a leaf to the tree before persisting
// its meta — so every listed meta's leaf is in the walked tree unless a
// decay sweep (serialized by decayMu) pruned it.
func (e *Engine) cleanupLeafMeta() error {
	listing := e.fs.List("/spate/meta/leaf/")
	live := make(map[string]bool)
	e.mu.RLock()
	e.tree.Walk(func(n *index.Node) bool {
		if n.IsLeaf() {
			live[leafMetaPath(n.Epoch)] = true
		}
		return true
	})
	e.mu.RUnlock()
	for _, fi := range listing {
		if !live[fi.Path] {
			if err := e.fs.Delete(fi.Path); err != nil {
				return fmt.Errorf("core: cleanup %s: %w", fi.Path, err)
			}
		}
	}
	return nil
}

// replaceLeafMeta rewrites one leaf's persisted metadata in place (the DFS
// is write-once, so replace = delete + write).
func (e *Engine) replaceLeafMeta(m leafMeta) error {
	path := leafMetaPath(m.Epoch)
	if e.fs.Exists(path) {
		if err := e.fs.Delete(path); err != nil {
			return fmt.Errorf("core: replace leaf meta: %w", err)
		}
	}
	return e.persistLeafMeta(m)
}
