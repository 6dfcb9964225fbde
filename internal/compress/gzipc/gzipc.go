// Package gzipc adapts the standard library's gzip (DEFLATE = LZ77 +
// Huffman, RFC 1951/1952) to the SPATE codec interface. This is the codec
// the paper's SPATE implementation ships with, chosen for its availability
// in java.util.zip and its maximum portability across stream readers in the
// big-data ecosystem (§IV-A).
package gzipc

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"slices"
	"sync"

	"spate/internal/compress"
)

func init() { compress.Register(Codec{}) }

// Codec is the gzip codec. The zero value is ready to use.
type Codec struct{}

// Name implements compress.Codec.
func (Codec) Name() string { return "gzip" }

// deflater is a pooled gzip writer with the slice it appends to; the writer
// stays bound to its own out, so a Compress allocates nothing but output.
type deflater struct {
	zw  *gzip.Writer
	out []byte
}

func (d *deflater) Write(p []byte) (int, error) {
	d.out = append(d.out, p...)
	return len(p), nil
}

var deflaters = sync.Pool{
	New: func() any {
		d := new(deflater)
		zw, err := gzip.NewWriterLevel(d, gzip.BestCompression)
		if err != nil {
			panic(err) // static level, cannot fail
		}
		d.zw = zw
		return d
	},
}

// Compress implements compress.Codec.
func (Codec) Compress(dst, src []byte) []byte {
	d := deflaters.Get().(*deflater)
	d.out = dst
	d.zw.Reset(d)
	// Appends to a slice cannot fail.
	_, _ = d.zw.Write(src)
	_ = d.zw.Close()
	dst, d.out = d.out, nil
	deflaters.Put(d)
	return dst
}

// inflater is a pooled gzip reader with the source reader it decodes from.
type inflater struct {
	zr  gzip.Reader
	src bytes.Reader
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// maxDeflateRatio bounds what DEFLATE can expand a byte to (RFC 1951: a
// 258-byte match per two bits, rounded up), so a corrupt length trailer
// cannot demand an arbitrary allocation.
const maxDeflateRatio = 1032

// Decompress implements compress.Codec.
func (Codec) Decompress(dst, src []byte) ([]byte, error) {
	in := inflaters.Get().(*inflater)
	defer func() {
		in.src.Reset(nil) // a pooled reader must not pin the caller's bytes
		inflaters.Put(in)
	}()
	in.src.Reset(src)
	if err := in.zr.Reset(&in.src); err != nil {
		return dst, compress.Corruptf("gzip: header")
	}
	// The trailer's last four bytes are the uncompressed length (RFC 1952
	// ISIZE): size the output once, then read straight into it. A wrong
	// trailer costs a reallocation or some slack, never correctness — the
	// reader checks length and CRC itself. (A header parsed, so src holds at
	// least its ten bytes.)
	size := min(int(binary.LittleEndian.Uint32(src[len(src)-4:])), maxDeflateRatio*len(src))
	out := slices.Grow(dst, size+1) // +1: room to see EOF without growing
	for {
		n, err := in.zr.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return dst, compress.Corruptf("gzip: body")
		}
		if len(out) == cap(out) {
			out = slices.Grow(out, len(out)/2+512)
		}
	}
}
