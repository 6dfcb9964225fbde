package zst

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"spate/internal/compress"
	"spate/internal/compress/bitio"
)

func TestBuildLengthsKraft(t *testing.T) {
	// Any frequency distribution must yield a prefix-decodable code:
	// Kraft sum <= 1.
	f := func(seed int64, nsyms uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var freq [256]int
		n := int(nsyms)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			freq[rng.Intn(256)] += 1 + rng.Intn(10000)
		}
		lens := buildLengths(&freq)
		kraft := 0.0
		for s, l := range lens {
			if freq[s] > 0 && l == 0 {
				return false // used symbol without a code
			}
			if l > maxCodeLen {
				return false
			}
			if l > 0 {
				kraft += 1 / float64(uint(1)<<l)
			}
		}
		return kraft <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBuildLengthsOptimalish(t *testing.T) {
	// A heavily skewed distribution gives the hot symbol a short code.
	var freq [256]int
	freq['a'] = 1000000
	freq['b'] = 1
	freq['c'] = 1
	lens := buildLengths(&freq)
	if lens['a'] > 2 {
		t.Errorf("hot symbol got %d-bit code", lens['a'])
	}
	if lens['b'] < lens['a'] {
		t.Errorf("cold symbol got shorter code than hot one")
	}
}

func TestHuffStreamRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte(strings.Repeat("abcabc", 500)),
		bytes.Repeat([]byte{0}, 1000),
		randomBytes(2048, 4),
	}
	for i, data := range cases {
		enc := appendHuffStream(nil, data)
		got, rest, err := readHuffStream(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
		if len(rest) != 0 {
			t.Fatalf("case %d: %d leftover bytes", i, len(rest))
		}
	}
}

func TestHuffStreamFraming(t *testing.T) {
	// Two consecutive streams must be separable.
	a := []byte(strings.Repeat("hello", 200))
	b := []byte(strings.Repeat("world", 100))
	enc := appendHuffStream(nil, a)
	enc = appendHuffStream(enc, b)
	gotA, rest, err := readHuffStream(enc)
	if err != nil || !bytes.Equal(gotA, a) {
		t.Fatalf("first stream: %v", err)
	}
	gotB, rest, err := readHuffStream(rest)
	if err != nil || !bytes.Equal(gotB, b) {
		t.Fatalf("second stream: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d leftover bytes", len(rest))
	}
}

func TestHuffStreamCorruption(t *testing.T) {
	data := []byte(strings.Repeat("abcdef", 300))
	enc := appendHuffStream(nil, data)
	if _, _, err := readHuffStream(enc[:3]); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, _, err := readHuffStream(nil); err == nil {
		t.Error("empty stream accepted")
	}
	// Unknown mode byte.
	bad := bitio.AppendUvarint(nil, 5)
	bad = append(bad, 99)
	if _, _, err := readHuffStream(bad); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestDecompressRefusesUnknownFlags pins the container's flags byte: only
// the raw and compressed block types decode. A block carrying any other
// bit — the dictionary flag (0x10) earlier writers set among them — is
// refused as corrupt, never decoded into wrong bytes.
func TestDecompressRefusesUnknownFlags(t *testing.T) {
	data := bytes.Repeat([]byte("shared-structure|"), 64)
	comp := Codec{}.Compress(nil, data)
	_, n := bitio.Uvarint(comp)
	if comp[n] != blockComp {
		t.Fatalf("flags = %#x, want a compressed block", comp[n])
	}
	for _, flags := range []byte{blockComp | 0x10, blockRaw | 0x10, 2, 0x80} {
		bad := append([]byte(nil), comp...)
		bad[n] = flags
		if _, err := (Codec{}).Decompress(nil, bad); !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("flags %#x: err = %v, want ErrCorrupt", flags, err)
		}
	}
	got, err := Codec{}.Decompress(nil, comp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
}

func randomBytes(n int, seed int64) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

func BenchmarkHuffEncode(b *testing.B) {
	data := []byte(strings.Repeat("telco text with skewed byte frequencies 0123|", 1000))
	b.SetBytes(int64(len(data)))
	var out []byte
	for i := 0; i < b.N; i++ {
		out = appendHuffStream(out[:0], data)
	}
}
