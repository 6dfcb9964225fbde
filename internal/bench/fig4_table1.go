package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"spate/internal/compress"
	"spate/internal/entropy"
	"spate/internal/gen"
	"spate/internal/telco"
)

// fig4Entropy reproduces Figure 4: the Shannon entropy of every attribute
// of the CDR, NMS and CELL sources. The paper's headline observation —
// most CDR attributes below 1 bit, several exactly 0 — is printed as a
// summary per panel, followed by the first attributes of each source.
func fig4Entropy(w io.Writer, o Options) error {
	o = o.withDefaults()
	g := gen.New(o.genConfig())
	// Accumulate a sample of snapshots so per-attribute distributions are
	// representative (one morning, one evening, one night epoch per day).
	cdr := telco.NewTable(telco.CDRSchema)
	nms := telco.NewTable(telco.NMSSchema)
	e0 := telco.EpochOf(g.Config().Start)
	for d := 0; d < o.Days; d++ {
		for _, hh := range []int{9 * 2, 18 * 2, 2 * 2} { // 09:00, 18:00, 02:00
			e := e0 + telco.Epoch(d*telco.EpochsPerDay+hh)
			cdr.Rows = append(cdr.Rows, g.CDRTable(e).Rows...)
			nms.Rows = append(nms.Rows, g.NMSTable(e).Rows...)
		}
	}
	cell := g.CellTable()

	summary := &table{
		title:  "Figure 4 — Entropy of attributes (summary per panel)",
		header: []string{"source", "attrs", "H=0", "H<1bit", "max H", "mean H"},
	}
	detail := &table{
		title:  "Figure 4 — per-attribute entropy (first attributes of each source)",
		header: []string{"source", "attribute", "entropy (bits)"},
	}
	for _, panel := range []struct {
		name string
		t    *telco.Table
		show int
	}{{"CDR", cdr, 10}, {"NMS", nms, 8}, {"CELL", cell, 10}} {
		es := entropy.OfTable(panel.t)
		s := entropy.Summarize(es)
		summary.addRow(panel.name,
			fmt.Sprint(s.Attrs), fmt.Sprint(s.Zero), fmt.Sprint(s.BelowOne),
			fmt.Sprintf("%.2f", s.Max), fmt.Sprintf("%.2f", s.Mean))
		for i, e := range es {
			if i >= panel.show {
				break
			}
			detail.addRow(panel.name, e.Attr, fmt.Sprintf("%.3f", e.Bits))
		}
	}
	summary.fprint(w)
	detail.fprint(w)
	fmt.Fprintln(w, "\npaper shape: most CDR attributes < 1 bit with several exactly 0;")
	fmt.Fprintln(w, "NMS attributes substantially more entropic; CELL mixed low.")
	return nil
}

// table1Compression reproduces Table I: compression ratio rc, compression
// time Tc1 and decompression time Tc2 per 30-minute snapshot, averaged
// over the trace, for each of the four codecs.
func table1Compression(w io.Writer, o Options) error {
	o = o.withDefaults()
	g := gen.New(o.genConfig())
	// Render the snapshots once.
	var snaps [][]byte
	e0 := telco.EpochOf(g.Config().Start)
	n := o.Days * telco.EpochsPerDay
	if n > 24 {
		n = 24 // Table I averages per snapshot; two dozen suffice
	}
	for i := 0; i < n; i++ {
		e := e0 + telco.Epoch(i*2) // spread across the day
		var buf bytes.Buffer
		if err := g.CDRTable(e).WriteText(&buf); err != nil {
			return err
		}
		if err := g.NMSTable(e).WriteText(&buf); err != nil {
			return err
		}
		snaps = append(snaps, append([]byte(nil), buf.Bytes()...))
	}

	t := &table{
		title:  "Table I — Lossless compression libraries (average per 30-min snapshot)",
		header: []string{"codec", "ratio rc", "Tc1 (compress)", "Tc2 (decompress)", "snapshot"},
	}
	paper := map[string]string{
		"gzip": "paper GZIP: 9.06", "sevenz": "paper 7z: 11.75",
		"snappy": "paper SNAPPY: 4.94", "zstd": "paper ZSTD: 9.72",
	}
	for _, name := range compress.Names() {
		c, err := compress.Lookup(name)
		if err != nil {
			return err
		}
		var raw, comp int64
		var tc1, tc2 time.Duration
		for _, s := range snaps {
			start := time.Now()
			cb := c.Compress(nil, s)
			tc1 += time.Since(start)
			start = time.Now()
			out, err := c.Decompress(nil, cb)
			tc2 += time.Since(start)
			if err != nil {
				return fmt.Errorf("bench: %s round trip: %w", name, err)
			}
			if !bytes.Equal(out, s) {
				return fmt.Errorf("bench: %s corrupted a snapshot", name)
			}
			raw += int64(len(s))
			comp += int64(len(cb))
		}
		k := time.Duration(len(snaps))
		t.addRow(name,
			fmt.Sprintf("%.2f", compress.Ratio(int(raw), int(comp))),
			fmtDur(tc1/k), fmtDur(tc2/k), paper[name])
	}
	t.fprint(w)
	fmt.Fprintln(w, "\npaper shape: 7z best ratio & slowest; SNAPPY ~half the ratio, no")
	fmt.Fprintln(w, "entropy stage; GZIP and ZSTD in between; Tc2 << Tc1 for all codecs.")
	return nil
}
