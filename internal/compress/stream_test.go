package compress_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"spate/internal/compress"
)

func TestStreamRoundTripAllCodecs(t *testing.T) {
	for _, c := range allCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			// Spans multiple chunks: 2.5 MB of repetitive text.
			data := bytes.Repeat([]byte("stream-chunked telco line|42|OK\n"), 80_000)
			var buf bytes.Buffer
			w := compress.NewStreamWriter(c, &buf)
			// Write in awkward sizes to exercise chunk boundaries.
			for off := 0; off < len(data); {
				n := 100_000 + off%37
				if off+n > len(data) {
					n = len(data) - off
				}
				if _, err := w.Write(data[off : off+n]); err != nil {
					t.Fatal(err)
				}
				off += n
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if buf.Len() >= len(data) {
				t.Errorf("stream did not compress: %d of %d", buf.Len(), len(data))
			}
			got, err := io.ReadAll(compress.NewStreamReader(c, &buf))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(data))
			}
		})
	}
}

func TestStreamEmpty(t *testing.T) {
	c := mustCodec(t, "gzip")
	var buf bytes.Buffer
	w := compress.NewStreamWriter(c, &buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(compress.NewStreamReader(c, &buf))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: %v, %d bytes", err, len(got))
	}
}

func TestStreamCloseIdempotentAndWriteAfterClose(t *testing.T) {
	c := mustCodec(t, "snappy")
	var buf bytes.Buffer
	w := compress.NewStreamWriter(c, &buf)
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("y")); err == nil {
		t.Error("write after close accepted")
	}
}

func TestStreamTruncationDetected(t *testing.T) {
	c := mustCodec(t, "zstd")
	data := []byte(strings.Repeat("abc", 100_000))
	var buf bytes.Buffer
	w := compress.NewStreamWriter(c, &buf)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for _, cut := range []int{1, len(enc) / 2, len(enc) - 1} {
		got, err := io.ReadAll(compress.NewStreamReader(c, bytes.NewReader(enc[:cut])))
		if err == nil && bytes.Equal(got, data) {
			t.Errorf("cut=%d: truncated stream decoded fully", cut)
		}
	}
}

func TestStreamGarbageChunkHeader(t *testing.T) {
	c := mustCodec(t, "gzip")
	// An absurd chunk size must be rejected before allocation.
	in := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := io.ReadAll(compress.NewStreamReader(c, bytes.NewReader(in))); err == nil {
		t.Error("giant chunk header accepted")
	}
}

// TestStreamHeaderOverflowIsCorrupt: a frame header whose uvarint overflows
// 64 bits — ten continuation bytes, or a tenth byte above 1 — is corrupt
// input, not an error of another kind.
func TestStreamHeaderOverflowIsCorrupt(t *testing.T) {
	c := mustCodec(t, "gzip")
	for _, in := range [][]byte{
		bytes.Repeat([]byte{0xff}, 10),
		append(bytes.Repeat([]byte{0xff}, 9), 0x02),
	} {
		_, err := io.ReadAll(compress.NewStreamReader(c, bytes.NewReader(in)))
		if !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("header % x: err = %v, want ErrCorrupt", in, err)
		}
	}
}

func TestStreamRandomPayload(t *testing.T) {
	c := mustCodec(t, "sevenz")
	data := make([]byte, 300_000)
	rand.New(rand.NewSource(9)).Read(data)
	var buf bytes.Buffer
	w := compress.NewStreamWriter(c, &buf)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(compress.NewStreamReader(c, &buf))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("random payload: %v", err)
	}
}

// TestStreamChunkSizes drives every codec through adversarial chunk
// granularities: a 1-byte chunk degenerates to per-byte compression, prime
// sizes never align with write boundaries, and a chunk larger than the
// payload exercises the single-flush path. The segment leaf format feeds
// these adapters with arbitrary chunk sizes, so all of them must round-trip.
func TestStreamChunkSizes(t *testing.T) {
	payload := []byte(strings.Repeat("cdr|20160104093000|4711|OK|17.25\n", 700)) // ~22 KB
	for _, c := range allCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			for _, size := range []int{1, 7, 13, 127, 4093, len(payload) + 1, 1 << 20} {
				var buf bytes.Buffer
				w := compress.NewStreamWriterSize(c, &buf, size)
				// Awkward write sizes so chunk boundaries fall mid-write.
				for off := 0; off < len(payload); {
					n := 997
					if off+n > len(payload) {
						n = len(payload) - off
					}
					if _, err := w.Write(payload[off : off+n]); err != nil {
						t.Fatalf("size=%d: %v", size, err)
					}
					off += n
				}
				if err := w.Close(); err != nil {
					t.Fatalf("size=%d: %v", size, err)
				}
				got, err := io.ReadAll(compress.NewStreamReader(c, &buf))
				if err != nil {
					t.Fatalf("size=%d: %v", size, err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("size=%d: round trip mismatch (%d vs %d bytes)", size, len(got), len(payload))
				}
			}
		})
	}
}

// TestStreamTruncationAllCodecs cuts encoded streams at every interesting
// point — mid-header, mid-chunk, and just before the terminator — and
// requires the reader to fail with ErrCorrupt for every codec. The segment
// reader depends on this to surface torn chunks as corrupt input.
func TestStreamTruncationAllCodecs(t *testing.T) {
	payload := []byte(strings.Repeat("truncated telco stream line|99|FAIL\n", 4000))
	for _, c := range allCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			w := compress.NewStreamWriterSize(c, &buf, 16<<10)
			if _, err := w.Write(payload); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			enc := buf.Bytes()
			for _, cut := range []int{0, 1, 2, len(enc) / 3, len(enc) / 2, len(enc) - 2, len(enc) - 1} {
				_, err := io.ReadAll(compress.NewStreamReader(c, bytes.NewReader(enc[:cut])))
				if !errors.Is(err, compress.ErrCorrupt) {
					t.Errorf("cut=%d: err = %v, want ErrCorrupt", cut, err)
				}
			}
		})
	}
}

func mustCodec(t *testing.T, name string) compress.Codec {
	t.Helper()
	c, err := compress.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
