// Package zst implements a ZSTD-style codec: an LZ77 parse over an
// unbounded window whose literal and token streams are entropy-coded with
// canonical Huffman. It targets fast decompression with a ratio close to
// GZIP's, matching its Table I row. The paper's §IV-B singles out zstd's
// trained dictionaries; this codec has none, because training one on telco
// wire text stored nothing less (EXPERIMENTS.md).
package zst

import (
	"spate/internal/compress"
	"spate/internal/compress/bitio"
	"spate/internal/compress/lz"
)

func init() { compress.Register(Codec{}) }

// Codec is the zstd-style codec.
type Codec struct{}

// maxChain bounds the LZ hash-chain search: compression runs once per
// 30-minute cycle but still sits on the ingest critical path.
const maxChain = 64

// Name implements compress.Codec.
func (Codec) Name() string { return "zstd" }

// Block types, the container's flags byte. The decoder refuses any other
// value.
const (
	blockRaw  = 0
	blockComp = 1
)

// Compress implements compress.Codec. Layout:
//
//	uvarint origLen | byte flags | body
//
// where a compressed body is: uvarint numSeqs, framed token stream
// (litLen/matchLen/dist uvarints), framed literal stream.
func (Codec) Compress(dst, src []byte) []byte {
	dst = bitio.AppendUvarint(dst, uint64(len(src)))
	if len(src) < 32 {
		return append(append(dst, blockRaw), src...)
	}
	seqs := lz.Parse(src, lz.Options{MinMatch: 4, MaxChain: maxChain, Lazy: true})
	var tokens []byte
	var lits []byte
	pos := 0
	for _, s := range seqs {
		tokens = bitio.AppendUvarint(tokens, uint64(s.LitLen))
		tokens = bitio.AppendUvarint(tokens, uint64(s.MatchLen))
		if s.MatchLen > 0 {
			tokens = bitio.AppendUvarint(tokens, uint64(s.Dist))
		}
		lits = append(lits, src[pos:pos+s.LitLen]...)
		pos += s.LitLen + s.MatchLen
	}
	body := []byte{blockComp}
	body = bitio.AppendUvarint(body, uint64(len(seqs)))
	body = appendHuffStream(body, tokens)
	body = appendHuffStream(body, lits)
	if len(body) >= len(src)+1 {
		return append(append(dst, blockRaw), src...)
	}
	return append(dst, body...)
}

// Decompress implements compress.Codec.
func (Codec) Decompress(dst, src []byte) ([]byte, error) {
	want, n := bitio.Uvarint(src)
	if n == 0 {
		return dst, compress.Corruptf("zstd: length header")
	}
	src = src[n:]
	if len(src) < 1 {
		return dst, compress.Corruptf("zstd: missing flags")
	}
	flags := src[0]
	src = src[1:]
	switch flags {
	case blockRaw:
		if uint64(len(src)) < want {
			return dst, compress.Corruptf("zstd: raw block truncated")
		}
		return append(dst, src[:want]...), nil
	case blockComp:
	default:
		return dst, compress.Corruptf("zstd: unknown block flags %#x", flags)
	}
	numSeqs, n := bitio.Uvarint(src)
	if n == 0 {
		return dst, compress.Corruptf("zstd: seq count")
	}
	src = src[n:]
	tokens, src, err := readHuffStream(src)
	if err != nil {
		return dst, err
	}
	lits, _, err := readHuffStream(src)
	if err != nil {
		return dst, err
	}
	seqs := make([]lz.Seq, 0, numSeqs)
	produced := uint64(0)
	for i := uint64(0); i < numSeqs; i++ {
		var s lz.Seq
		var v uint64
		if v, n = bitio.Uvarint(tokens); n == 0 {
			return dst, compress.Corruptf("zstd: token litlen")
		}
		s.LitLen = int(v)
		tokens = tokens[n:]
		if v, n = bitio.Uvarint(tokens); n == 0 {
			return dst, compress.Corruptf("zstd: token matchlen")
		}
		s.MatchLen = int(v)
		tokens = tokens[n:]
		if s.MatchLen > 0 {
			if v, n = bitio.Uvarint(tokens); n == 0 {
				return dst, compress.Corruptf("zstd: token dist")
			}
			s.Dist = int(v)
			tokens = tokens[n:]
		}
		produced += uint64(s.LitLen + s.MatchLen)
		if produced > want {
			return dst, compress.Corruptf("zstd: sequences overrun")
		}
		seqs = append(seqs, s)
	}
	if produced != want {
		return dst, compress.Corruptf("zstd: sequences cover %d of %d bytes", produced, want)
	}
	out, ok := lz.Expand(dst, lits, seqs)
	if !ok {
		return dst, compress.Corruptf("zstd: expand")
	}
	return out, nil
}
