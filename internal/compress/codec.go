// Package compress defines the lossless codec abstraction of SPATE's
// storage layer (paper §IV) and a registry of implementations.
//
// The storage layer's desiderata drive the interface: a snapshot is
// compressed once, in its 30-minute ingestion cycle, and decompressed on
// every exploratory query that reaches it, so codecs expose one-shot
// buffer-level calls that the query path can invoke with zero setup cost.
// Compression time is the smaller concern, not a free one: it bounds how
// fast a store boots or catches up, and the paper holds ingest to 1.25x of
// writing the raw text. The batch path calls Compress once per leaf chunk;
// with gzip at BestCompression the whole of ingest (sort, column packing,
// compression, replicated writes, indexing) runs at ~12 MB/s of wire text
// on a 2-core box (130 MiB in 10-11 s; 3 MB/s when it compressed every
// chunk three times to pick a layout).
//
// Four codecs mirror the paper's Table I microbenchmark:
//
//   - "gzip"   — DEFLATE via the standard library (the codec SPATE ships with)
//   - "sevenz" — LZ77 + adaptive binary range coder (LZMA-style: best ratio,
//     slowest compression)
//   - "snappy" — byte-oriented LZ with no entropy stage (fastest, ~half the
//     ratio of the others)
//   - "zstd"   — LZ77 + canonical Huffman (modern balance of ratio and speed)
//
// Implementations live in subpackages and self-register; import
// spate/internal/compress/all to load every codec.
//
// Beside the block codecs the package holds the column stream codecs of the
// SPSG v3 chunk layout (column.go): plain, dictionary+RLE and delta
// packings of one attribute's fields, each with two decoders over one
// walker — DecodeColumn back to the escaped wire fields (compaction's
// bit-for-bit rewrite) and DecodeColumnBatch straight into a column of a
// telco.Batch, the pointer-free typed arrays every scan runs on. The two
// are held equal field for field by a property test and a fuzz target.
package compress

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Codec is a lossless block compressor. Implementations must be safe for
// concurrent use by multiple goroutines.
type Codec interface {
	// Name returns the registry key, e.g. "gzip".
	Name() string
	// Compress appends the compressed form of src to dst and returns the
	// extended slice.
	Compress(dst, src []byte) []byte
	// Decompress appends the original bytes to dst and returns the extended
	// slice. It fails on corrupted or truncated input.
	Decompress(dst, src []byte) ([]byte, error)
}

// ErrCorrupt is returned (possibly wrapped) when compressed input is
// malformed or truncated.
var ErrCorrupt = errors.New("compress: corrupt input")

// Corruptf wraps ErrCorrupt with codec-specific detail.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
}

var (
	mu       sync.RWMutex
	registry = map[string]Codec{}
)

// Register installs a codec under its name. It panics on duplicates, which
// indicate conflicting init-time registrations.
func Register(c Codec) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[c.Name()]; dup {
		panic(fmt.Sprintf("compress: duplicate codec %q", c.Name()))
	}
	registry[c.Name()] = c
}

// Lookup returns the codec registered under name.
func Lookup(name string) (Codec, error) {
	mu.RLock()
	defer mu.RUnlock()
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q (did you import compress/all?)", name)
	}
	return c, nil
}

// Names lists the registered codecs in sorted order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Ratio returns the compression ratio rc = |original| / |compressed|,
// the paper's Table I metric. A zero-length compressed size yields 0.
func Ratio(originalSize, compressedSize int) float64 {
	if compressedSize <= 0 {
		return 0
	}
	return float64(originalSize) / float64(compressedSize)
}
