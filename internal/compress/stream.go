package compress

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Stream framing adapts the block codecs to io.Reader/io.Writer pipelines —
// the "maximum compatibility with I/O stream libraries in the big data
// ecosystem" desideratum of §IV-A. A stream is a sequence of
// length-prefixed compressed chunks:
//
//	[uvarint compressed-length][compressed chunk] ... [uvarint 0]
//
// Writers buffer up to ChunkSize bytes before compressing a chunk, so
// arbitrarily large snapshots stream through bounded memory.

// ChunkSize is the default uncompressed chunk granularity of stream
// writers.
const ChunkSize = 1 << 20

// maxChunk bounds a single compressed chunk a reader will accept.
const maxChunk = 16 << 20

// StreamWriter compresses a byte stream chunk-wise through a codec.
type StreamWriter struct {
	c      Codec
	w      *bufio.Writer
	size   int
	buf    []byte
	comp   []byte
	closed bool
}

// NewStreamWriter returns a WriteCloser compressing onto w with codec c.
// Close flushes the final chunk and the end-of-stream marker; it does not
// close the underlying writer.
func NewStreamWriter(c Codec, w io.Writer) *StreamWriter {
	return NewStreamWriterSize(c, w, ChunkSize)
}

// NewStreamWriterSize is NewStreamWriter with an explicit uncompressed
// chunk granularity — the segment leaf format uses small chunks so readers
// can prune and decode them independently. A non-positive size falls back
// to ChunkSize.
func NewStreamWriterSize(c Codec, w io.Writer, chunkSize int) *StreamWriter {
	if chunkSize <= 0 {
		chunkSize = ChunkSize
	}
	return &StreamWriter{c: c, w: bufio.NewWriterSize(w, 64<<10), size: chunkSize}
}

// Write implements io.Writer.
func (s *StreamWriter) Write(p []byte) (int, error) {
	if s.closed {
		return 0, fmt.Errorf("compress: write on closed stream")
	}
	n := len(p)
	for len(p) > 0 {
		room := s.size - len(s.buf)
		if room > len(p) {
			room = len(p)
		}
		s.buf = append(s.buf, p[:room]...)
		p = p[room:]
		if len(s.buf) == s.size {
			if err := s.flushChunk(); err != nil {
				return n - len(p), err
			}
		}
	}
	return n, nil
}

func (s *StreamWriter) flushChunk() error {
	if len(s.buf) == 0 {
		return nil
	}
	s.comp = s.c.Compress(s.comp[:0], s.buf)
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], uint64(len(s.comp)))
	if _, err := s.w.Write(hdr[:k]); err != nil {
		return fmt.Errorf("compress: stream header: %w", err)
	}
	if _, err := s.w.Write(s.comp); err != nil {
		return fmt.Errorf("compress: stream chunk: %w", err)
	}
	s.buf = s.buf[:0]
	return nil
}

// Close flushes pending data and terminates the stream.
func (s *StreamWriter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.flushChunk(); err != nil {
		return err
	}
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], 0)
	if _, err := s.w.Write(hdr[:k]); err != nil {
		return fmt.Errorf("compress: stream terminator: %w", err)
	}
	return s.w.Flush()
}

// StreamReader decompresses a chunked stream produced by StreamWriter.
type StreamReader struct {
	c    Codec
	r    *bufio.Reader
	out  []byte // decoded bytes not yet delivered
	comp []byte
	done bool
}

// NewStreamReader returns a Reader decoding from r with codec c. The codec
// must match the writer's.
func NewStreamReader(c Codec, r io.Reader) *StreamReader {
	return &StreamReader{c: c, r: bufio.NewReaderSize(r, 64<<10)}
}

// Read implements io.Reader.
func (s *StreamReader) Read(p []byte) (int, error) {
	for len(s.out) == 0 {
		if s.done {
			return 0, io.EOF
		}
		if err := s.nextChunk(); err != nil {
			return 0, err
		}
	}
	n := copy(p, s.out)
	s.out = s.out[n:]
	return n, nil
}

// nextChunk decodes the next frame. A stream that ends before its
// end-of-stream marker — mid-header, mid-frame, or between frames — is
// corrupt input like any other damage a reader detects, and so is a frame
// header that overflows 64 bits.
func (s *StreamReader) nextChunk() error {
	size, err := s.header()
	if err != nil {
		return err
	}
	if size == 0 {
		s.done = true
		return nil
	}
	if size > maxChunk {
		return Corruptf("compress: chunk of %d bytes exceeds limit", size)
	}
	if cap(s.comp) < int(size) {
		s.comp = make([]byte, size)
	}
	s.comp = s.comp[:size]
	if _, err := io.ReadFull(s.r, s.comp); err != nil {
		return truncated("compress: stream chunk", err)
	}
	s.out, err = s.c.Decompress(s.out[:0], s.comp)
	if err != nil {
		return err
	}
	return nil
}

// header reads a frame header, a uvarint, as binary.ReadUvarint does, but
// with its overflow reported as ErrCorrupt: binary's overflow error is not
// one a caller can tell from a failure of the source.
func (s *StreamReader) header() (uint64, error) {
	var x uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := s.r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, truncated("compress: stream header", err)
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return x | uint64(b)<<(7*i), nil
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	return 0, Corruptf("compress: stream header overflows 64 bits")
}

// truncated wraps a read failure of what: an end of input as ErrCorrupt,
// anything else (the source's own failure) as it is.
func truncated(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return Corruptf("%s: truncated (%v)", what, err)
	}
	return fmt.Errorf("%s: %w", what, err)
}
