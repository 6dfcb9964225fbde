package compress

import (
	"time"

	"spate/internal/obs"
)

// instrumented wraps a codec with per-codec byte/ratio/latency accounting.
// It reports into the registry under the codec's own name label, so every
// engine sharing a registry aggregates into one per-codec series.
type instrumented struct {
	inner Codec

	cIn, cOut *obs.Counter
	dIn, dOut *obs.Counter
	cSec      *obs.Histogram
	dSec      *obs.Histogram
	ratio     *obs.Gauge
}

// Instrument wraps c so Compress/Decompress record bytes in/out, call
// latency and the cumulative compression ratio under the codec's name.
// A nil or noop registry returns c unchanged (zero overhead), as does an
// already-instrumented codec.
func Instrument(c Codec, r *obs.Registry) Codec {
	if c == nil || r == nil || r.Noop() {
		return c
	}
	if _, ok := c.(*instrumented); ok {
		return c
	}
	name := c.Name()
	return &instrumented{
		inner: c,
		cIn:   r.Counter("spate_compress_in_bytes_total", "Uncompressed bytes fed to Compress.", "codec", name),
		cOut:  r.Counter("spate_compress_out_bytes_total", "Compressed bytes produced by Compress.", "codec", name),
		dIn:   r.Counter("spate_decompress_in_bytes_total", "Compressed bytes fed to Decompress.", "codec", name),
		dOut:  r.Counter("spate_decompress_out_bytes_total", "Bytes restored by Decompress.", "codec", name),
		cSec:  r.Histogram("spate_compress_seconds", "Compress call latency.", nil, "codec", name),
		dSec:  r.Histogram("spate_decompress_seconds", "Decompress call latency.", nil, "codec", name),
		ratio: r.Gauge("spate_compress_ratio", "Cumulative compression ratio |raw|/|compressed| (Table I's rc).", "codec", name),
	}
}

// Name implements Codec.
func (w *instrumented) Name() string { return w.inner.Name() }

// Compress implements Codec.
func (w *instrumented) Compress(dst, src []byte) []byte {
	t0 := time.Now()
	mark := len(dst)
	out := w.inner.Compress(dst, src)
	w.cSec.ObserveSince(t0)
	w.cIn.Add(int64(len(src)))
	w.cOut.Add(int64(len(out) - mark))
	if o := w.cOut.Value(); o > 0 {
		w.ratio.Set(float64(w.cIn.Value()) / float64(o))
	}
	return out
}

// Decompress implements Codec.
func (w *instrumented) Decompress(dst, src []byte) ([]byte, error) {
	t0 := time.Now()
	mark := len(dst)
	out, err := w.inner.Decompress(dst, src)
	w.dSec.ObserveSince(t0)
	w.dIn.Add(int64(len(src)))
	if err == nil {
		w.dOut.Add(int64(len(out) - mark))
	}
	return out, err
}
