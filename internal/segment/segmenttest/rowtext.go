// Package segmenttest builds segment files that no writer produces any more,
// for the tests of the readers that still serve them. It renders them from
// the on-disk layout documented in package segment, not through the writers'
// own code, so a reader that parses its output also agrees with the format
// as written down.
package segmenttest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"spate/internal/compress"
	"spate/internal/segment"
)

// flagRowText and colZoneBit are the format's chunk flag bit2 and the zone
// bit of a column directory's lead byte.
const (
	flagRowText = 1 << 2
	colZoneBit  = 0x10
)

// RowTextLayout re-renders a v3 segment with every chunk in the row-text
// layout: the block-compressed row-major wire text under flag bit2, the
// column directory reduced to its zone maps. Writers before PR 17 picked
// this layout for a chunk when a trial compression came out smaller; stores
// from those writers hold such chunks and readers keep serving them.
func RowTextLayout(data []byte, codec compress.Codec) ([]byte, error) {
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), codec)
	if err != nil {
		return nil, err
	}
	if !r.Columnar() {
		return nil, fmt.Errorf("segmenttest: row-text layout needs a v%d segment, got v%d", segment.Version, r.Version())
	}
	out := []byte{'S', 'P', 'S', 'G', segment.Version}
	var foot []byte
	foot = binary.AppendUvarint(foot, uint64(r.NumChunks()))
	for i, ch := range r.Chunks() {
		text, err := r.ChunkData(i)
		if err != nil {
			return nil, err
		}
		payload := codec.Compress(nil, text)
		foot = binary.AppendUvarint(foot, uint64(len(out)))
		foot = binary.AppendUvarint(foot, uint64(len(payload)))
		foot = binary.AppendUvarint(foot, uint64(ch.ULen))
		foot = binary.AppendUvarint(foot, uint64(ch.Rows))
		foot = binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(payload))
		foot = append(foot, ch.Flags|flagRowText)
		foot = binary.LittleEndian.AppendUint64(foot, uint64(ch.MinTS))
		foot = binary.LittleEndian.AppendUint64(foot, uint64(ch.MaxTS))
		foot = binary.AppendUvarint(foot, uint64(len(ch.Sketch)))
		foot = append(foot, ch.Sketch...)
		foot = binary.AppendUvarint(foot, uint64(len(ch.Cols)))
		for _, m := range ch.Cols {
			// Row-text chunks carry no stream lengths: plain tag, zone only.
			if !m.HasZone {
				foot = append(foot, compress.ColPlain)
				continue
			}
			foot = append(foot, compress.ColPlain|colZoneBit)
			foot = binary.AppendVarint(foot, m.Min)
			foot = binary.AppendUvarint(foot, uint64(m.Max-m.Min))
		}
		out = append(out, payload...)
	}
	foot = codec.Compress(nil, foot)
	out = append(out, foot...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(foot)))
	return append(out, 'G', 'S', 'P', 'S'), nil
}
