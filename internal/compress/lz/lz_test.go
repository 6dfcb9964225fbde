package lz

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// roundTrip parses src and expands the parse back.
func roundTrip(t *testing.T, src []byte, o Options) {
	t.Helper()
	seqs := Parse(src, o)
	total := 0
	var lits []byte
	pos := 0
	for _, s := range seqs {
		lits = append(lits, src[pos:pos+s.LitLen]...)
		pos += s.LitLen + s.MatchLen
		total += s.LitLen + s.MatchLen
	}
	if total != len(src) {
		t.Fatalf("parse covers %d bytes, want %d", total, len(src))
	}
	got, ok := Expand(nil, lits, seqs)
	if !ok {
		t.Fatal("Expand failed")
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(src))
	}
}

func TestParseEmpty(t *testing.T) {
	if seqs := Parse(nil, Options{}); seqs != nil {
		t.Errorf("Parse(nil) = %v", seqs)
	}
}

func TestParseRoundTripTexts(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"short literal", "abc"},
		{"pure repeat", strings.Repeat("A", 1000)},
		{"line repeats", strings.Repeat("201601221530|357001|VOICE|OK\n", 200)},
		{"alternating", strings.Repeat("ab", 500)},
		{"no repeats", "the quick brown fox jumps over the lazy dog 0123456789"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			roundTrip(t, []byte(tc.src), Options{})
		})
	}
}

func TestParseFindsRepeats(t *testing.T) {
	src := []byte(strings.Repeat("telco-record-line|12345|OK\n", 100))
	seqs := Parse(src, Options{})
	var matched int
	for _, s := range seqs {
		matched += s.MatchLen
	}
	if frac := float64(matched) / float64(len(src)); frac < 0.9 {
		t.Errorf("only %.0f%% of repetitive input matched", frac*100)
	}
}

func TestParseRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(5000)
		src := make([]byte, n)
		// Mix of random and repeated chunks.
		for i := 0; i < n; {
			if rng.Float64() < 0.5 && i > 10 {
				l := 1 + rng.Intn(30)
				off := 1 + rng.Intn(i)
				for k := 0; k < l && i < n; k++ {
					src[i] = src[i-off]
					i++
				}
			} else {
				src[i] = byte(rng.Intn(8)) // small alphabet encourages matches
				i++
			}
		}
		roundTrip(t, src, Options{MaxChain: 16})
	}
}

func TestWindowLimitsDistance(t *testing.T) {
	// A repeat further back than the window must not be referenced.
	block := make([]byte, 300)
	rand.New(rand.NewSource(9)).Read(block)
	src := append(append([]byte{}, block...), make([]byte, 5000)...) // zeros gap
	src = append(src, block...)
	seqs := Parse(src, Options{WindowSize: 1024})
	for _, s := range seqs {
		if s.Dist > 1024+maxMatch {
			t.Fatalf("distance %d exceeds window", s.Dist)
		}
	}
	roundTrip(t, src, Options{WindowSize: 1024})
}

func TestExpandRejectsCorrupt(t *testing.T) {
	// Distance beyond start of output.
	if _, ok := Expand(nil, []byte("ab"), []Seq{{LitLen: 2, MatchLen: 3, Dist: 100}}); ok {
		t.Error("Expand accepted invalid distance")
	}
	// Literal overrun.
	if _, ok := Expand(nil, []byte("a"), []Seq{{LitLen: 5}}); ok {
		t.Error("Expand accepted literal overrun")
	}
	// Leftover literals.
	if _, ok := Expand(nil, []byte("abc"), []Seq{{LitLen: 1}}); ok {
		t.Error("Expand accepted leftover literals")
	}
	// Zero distance.
	if _, ok := Expand(nil, nil, []Seq{{MatchLen: 2, Dist: 0}}); ok {
		t.Error("Expand accepted zero distance")
	}
	// A match reaching back past the appended bytes into dst.
	if _, ok := Expand([]byte("xyz"), []byte("a"), []Seq{{LitLen: 1, MatchLen: 2, Dist: 3}}); ok {
		t.Error("Expand matched into the bytes dst already held")
	}
	// dst is kept, the decoded bytes follow it.
	if got, ok := Expand([]byte("xy"), []byte("ab"), []Seq{{LitLen: 2, MatchLen: 4, Dist: 2}}); !ok || string(got) != "xyababab" {
		t.Errorf("Expand after a prefix = %q, %v", got, ok)
	}
}

func TestParsePropertyCoverage(t *testing.T) {
	f := func(src []byte) bool {
		seqs := Parse(src, Options{MaxChain: 8})
		total := 0
		for _, s := range seqs {
			if s.LitLen < 0 || s.MatchLen < 0 {
				return false
			}
			total += s.LitLen + s.MatchLen
		}
		return total == len(src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
