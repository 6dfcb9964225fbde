// Package lz implements a shared LZ77 hash-chain match finder used by the
// sevenz (LZMA-style) and zstd-style codecs. It turns a byte stream into a
// sequence of (literal-run, match) steps that entropy coders then encode.
package lz

// Seq is one parse step: LitLen literal bytes copied verbatim from the
// input, followed by a back-reference of MatchLen bytes at distance Dist.
// The final step of a parse may have MatchLen == 0 (trailing literals).
type Seq struct {
	LitLen   int
	MatchLen int
	Dist     int
}

// Options tunes the match finder.
type Options struct {
	// WindowSize bounds match distances. <= 0 means unbounded (whole input).
	WindowSize int
	// MinMatch is the smallest useful match length (default 4).
	MinMatch int
	// MaxChain bounds hash-chain traversal per position (default 32).
	// Larger values find better matches at higher compression cost.
	MaxChain int
	// Lazy enables one-or-more-step lazy matching: when the position after
	// a match start offers a longer match, the current byte is emitted as a
	// literal instead (the classic gzip/LZMA parsing refinement).
	Lazy bool
}

func (o Options) withDefaults() Options {
	if o.MinMatch <= 0 {
		o.MinMatch = 4
	}
	if o.MinMatch < 4 {
		o.MinMatch = 4 // the hash covers 4 bytes
	}
	if o.MaxChain <= 0 {
		o.MaxChain = 32
	}
	return o
}

const (
	hashBits = 16
	hashLen  = 4
	maxMatch = 1 << 16
)

func hash4(b []byte) uint32 {
	// 4-byte multiplicative hash (Knuth).
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	return v * 2654435761 >> (32 - hashBits)
}

// Parse produces an LZ77 parse of src. The returned sequences exactly cover
// src: sum(LitLen + MatchLen) == len(src).
func Parse(src []byte, o Options) []Seq {
	o = o.withDefaults()
	if len(src) == 0 {
		return nil
	}
	data := src

	head := make([]int32, 1<<hashBits)
	for i := range head {
		head[i] = -1
	}
	prev := make([]int32, len(data))

	insert := func(i int) {
		if i+hashLen > len(data) {
			return
		}
		h := hash4(data[i:])
		prev[i] = head[h]
		head[h] = int32(i)
	}
	find := func(i int) (bestLen, bestDist int) {
		if i+hashLen > len(data) {
			return 0, 0
		}
		h := hash4(data[i:])
		cand := head[h]
		limit := 0
		if o.WindowSize > 0 && i-o.WindowSize > 0 {
			limit = i - o.WindowSize
		}
		for chain := 0; cand >= int32(limit) && chain < o.MaxChain; chain++ {
			j := int(cand)
			if j < limit {
				break
			}
			l := matchLen(data, j, i)
			if l > bestLen {
				bestLen, bestDist = l, i-j
				if l >= maxMatch {
					return maxMatch, bestDist
				}
			}
			cand = prev[j]
		}
		return bestLen, bestDist
	}

	var seqs []Seq
	lit := 0 // pending literal run length
	i := 0
	for i < len(data) {
		bestLen, bestDist := find(i)
		if bestLen < o.MinMatch {
			insert(i)
			i++
			lit++
			continue
		}
		inserted := false
		if o.Lazy {
			// Defer the match while the next position offers a longer one.
			for i+1+hashLen <= len(data) {
				if !inserted {
					insert(i)
					inserted = true
				}
				l2, d2 := find(i + 1)
				if l2 <= bestLen {
					break
				}
				i++
				lit++
				bestLen, bestDist = l2, d2
				inserted = false
			}
		}
		seqs = append(seqs, Seq{LitLen: lit, MatchLen: bestLen, Dist: bestDist})
		lit = 0
		if !inserted {
			insert(i)
		}
		// Insert positions covered by the match so later data can
		// reference them (sparsely, to bound cost on long matches).
		end := i + bestLen
		step := 1
		if bestLen > 64 {
			step = 4
		}
		for i++; i < end; i += step {
			insert(i)
		}
		i = end
	}
	if lit > 0 {
		seqs = append(seqs, Seq{LitLen: lit})
	}
	return seqs
}

func matchLen(data []byte, j, i int) int {
	n := 0
	for i+n < len(data) && data[j+n] == data[i+n] && n < maxMatch {
		n++
	}
	return n
}

// Expand reconstructs the original bytes from a parse and appends them to
// dst: the inverse of Parse, used by tests and as the decode core of the
// zstd-style codec. literals holds the concatenated literal bytes of all
// sequences. A match may reach back only into the bytes it appends.
func Expand(dst, literals []byte, seqs []Seq) ([]byte, bool) {
	mark := len(dst)
	out := dst
	lp := 0
	for _, s := range seqs {
		if lp+s.LitLen > len(literals) {
			return dst, false
		}
		out = append(out, literals[lp:lp+s.LitLen]...)
		lp += s.LitLen
		if s.MatchLen == 0 {
			continue
		}
		start := len(out) - s.Dist
		if s.Dist <= 0 || start < mark {
			return dst, false
		}
		for k := 0; k < s.MatchLen; k++ {
			out = append(out, out[start+k])
		}
	}
	if lp != len(literals) {
		return dst, false
	}
	return out, true
}
