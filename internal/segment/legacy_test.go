package segment_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spate/internal/compress"
	"spate/internal/segment"
	"spate/internal/telco"
)

// TestReadsLayoutsOfOlderWriters reads v3 segments the PR 16 writer wrote
// (testdata/pr16-*.seg, generator tables at scale 0.02, gzip) in the chunk
// layouts no writer chooses any more — row-major text under flagRowText,
// and every column plain — and in its packed layout, whose dictionary
// columns were picked by the old entropy rule. Every route out of a chunk
// must still yield the table's wire text (testdata/pr16-*.txt.gz) and its
// typed rows.
func TestReadsLayoutsOfOlderWriters(t *testing.T) {
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	gunzip := func(name string) []byte {
		zr, err := gzip.NewReader(bytes.NewReader(read(name)))
		if err != nil {
			t.Fatal(err)
		}
		text, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	c := codec(t, "gzip")
	for _, tc := range []struct {
		seg, text string
		schema    *telco.Schema
		layout    string // what most of its chunks are
	}{
		{"pr16-cdr-rowtext.seg", "pr16-cdr.txt.gz", telco.CDRSchema, "row-text"},
		{"pr16-cdr-packed.seg", "pr16-cdr.txt.gz", telco.CDRSchema, "packed"},
		{"pr16-nms-allplain.seg", "pr16-nms.txt.gz", telco.NMSSchema, "all-plain"},
	} {
		data, text := read(tc.seg), gunzip(tc.text)
		r, err := segment.Open(bytes.NewReader(data), int64(len(data)), c)
		if err != nil {
			t.Fatalf("%s: %v", tc.seg, err)
		}
		want, _, err := telco.DecodeRows(tc.schema, nil, text)
		if err != nil {
			t.Fatal(err)
		}
		cols := []int{0, tc.schema.FieldIndex(telco.AttrCellID), tc.schema.NumFields() - 1}
		wantCols := telco.ProjectRows(want, cols)
		layouts := map[string]int{}
		var gotText bytes.Buffer
		var got, gotCols []telco.Record
		for i, ch := range r.Chunks() {
			layout := "all-plain"
			for _, cm := range ch.Cols {
				if cm.Tag != compress.ColPlain {
					layout = "packed"
				}
			}
			if ch.RowMajor() {
				layout = "row-text"
			}
			layouts[layout]++
			chunkText, err := r.ChunkData(i)
			if err != nil {
				t.Fatalf("%s chunk %d: %v", tc.seg, i, err)
			}
			gotText.Write(chunkText)
			inflated, err := r.ChunkBytes(i)
			if err != nil {
				t.Fatalf("%s chunk %d: %v", tc.seg, i, err)
			}
			rows, _, err := decodeRows(r, i, inflated, tc.schema, nil)
			if err != nil {
				t.Fatalf("%s chunk %d: %v", tc.seg, i, err)
			}
			got = append(got, rows...)
			if rows, _, err = decodeRows(r, i, inflated, tc.schema, cols); err != nil {
				t.Fatalf("%s chunk %d: %v", tc.seg, i, err)
			}
			gotCols = append(gotCols, rows...)
			fields, _, err := r.ChunkColumns(i, cols[1:2])
			if err != nil || int64(len(fields[0])) != ch.Rows {
				t.Fatalf("%s chunk %d: ChunkColumns gave %d fields for %d rows, err %v", tc.seg, i, len(fields[0]), ch.Rows, err)
			}
		}
		if layouts[tc.layout]*2 <= r.NumChunks() {
			t.Errorf("%s: chunk layouts %v, want mostly %s", tc.seg, layouts, tc.layout)
		}
		if !bytes.Equal(gotText.Bytes(), text) {
			t.Errorf("%s: ChunkData does not reproduce the table's wire text", tc.seg)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DecodeRows differs from the parsed wire text", tc.seg)
		}
		if !reflect.DeepEqual(gotCols, wantCols) {
			t.Errorf("%s: projected DecodeRows differs from the projected wire text", tc.seg)
		}
	}
}
