package gzipc

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	c := Codec{}
	data := []byte(strings.Repeat("telco snapshot line|1234|OK\n", 500))
	comp := c.Compress(nil, data)
	if len(comp) >= len(data) {
		t.Errorf("no compression: %d of %d", len(comp), len(data))
	}
	got, err := c.Decompress(nil, comp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestInteropWithStandardGzip(t *testing.T) {
	// The wire format is plain RFC 1952: stdlib readers/writers interoperate
	// (the paper's "maximum portability" argument for GZIP, §IV-A).
	c := Codec{}
	data := []byte(strings.Repeat("interop|", 1000))

	// Our output reads with the stdlib reader.
	comp := c.Compress(nil, data)
	zr, err := gzip.NewReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stdlib read of our output: %v", err)
	}

	// Stdlib output reads with our decoder.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = c.Decompress(nil, buf.Bytes())
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("our read of stdlib output: %v", err)
	}
}

// TestAppendsToDst: both calls write through to dst — what was there stays,
// what a failed Decompress returns is dst untouched — and the output is the
// stdlib writer's at the same level, byte for byte.
func TestAppendsToDst(t *testing.T) {
	c := Codec{}
	data := []byte(strings.Repeat("append|me|", 3000))
	var want bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&want, gzip.BestCompression)
	_, _ = zw.Write(data)
	_ = zw.Close()
	comp := c.Compress([]byte("head"), data)
	if !bytes.Equal(comp, append([]byte("head"), want.Bytes()...)) {
		t.Fatal("Compress output differs from head + stdlib gzip at BestCompression")
	}
	for _, spare := range []int{0, 16, 2 * len(data)} {
		dst := append(make([]byte, 0, 4+spare), "head"...)
		got, err := c.Decompress(dst, comp[4:])
		if err != nil || !bytes.Equal(got, append([]byte("head"), data...)) {
			t.Fatalf("spare %d: Decompress into a prefixed dst: %v", spare, err)
		}
	}
	// A lying length trailer must not decode, nor disturb dst.
	bad := append([]byte(nil), comp[4:]...)
	bad[len(bad)-1] ^= 0x40
	if got, err := c.Decompress([]byte("head"), bad); err == nil || string(got) != "head" {
		t.Fatalf("corrupt trailer: got %d bytes, err %v", len(got), err)
	}
}

func TestGarbageRejected(t *testing.T) {
	c := Codec{}
	if _, err := c.Decompress(nil, []byte("not gzip at all")); err == nil {
		t.Error("garbage accepted")
	}
	data := []byte(strings.Repeat("x", 4096))
	comp := c.Compress(nil, data)
	if got, err := c.Decompress(nil, comp[:len(comp)/2]); err == nil && bytes.Equal(got, data) {
		t.Error("truncated stream decoded fully")
	}
}

func TestConcurrentUse(t *testing.T) {
	// The writer pool must be safe under concurrency.
	c := Codec{}
	data := []byte(strings.Repeat("pooled|", 2000))
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 20; j++ {
				got, err := c.Decompress(nil, c.Compress(nil, data))
				if err != nil || !bytes.Equal(got, data) {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
