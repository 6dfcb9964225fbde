package segmenttest

import (
	"bytes"

	"spate/internal/compress"
	"spate/internal/segment"
)

// Blob re-renders a segment of any version as a legacy whole-blob leaf: the
// table's wire text, every chunk's rows in stored order, compressed as one
// run. Engines wrote this form before chunked segments and no longer do;
// stores from that time hold such leaves, which readers and compaction keep
// serving.
func Blob(data []byte, codec compress.Codec) ([]byte, error) {
	r, err := segment.Open(bytes.NewReader(data), int64(len(data)), codec)
	if err != nil {
		return nil, err
	}
	var text []byte
	for i := 0; i < r.NumChunks(); i++ {
		chunk, err := r.ChunkData(i)
		if err != nil {
			return nil, err
		}
		text = append(text, chunk...)
	}
	return codec.Compress(nil, text), nil
}
