package main

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The box this runs on is a small virtual machine on a shared host, and its
// cores change speed under it: for minutes on end the same work costs a
// quarter to a third more CPU time, then it does not, whatever runs in the
// guest. Over ten runs that alone spreads every timing wider than the bounds
// the contract admits. The calibrator measures the drift instead of
// suffering it. All through a run one driver thread executes a small fixed
// kernel every calibEvery and notes the thread CPU time it cost; a timing is
// then reported at reference speed, that is multiplied by calibNominal over
// the kernel's mean cost during the interval the timing was taken in. The
// kernel is the benchmark's, not the program's: the same scaling applies to
// every commit measured, and the 4 % of one core it costs as well.

const (
	calibEvery = 50 * time.Millisecond
	// calibNominal is what one kernel run costs in seconds of thread CPU
	// time beside a loaded server on the box this was written on, while the
	// host is quiet: at that speed reported and measured timings are equal.
	calibNominal = 0.0020
)

type calSample struct {
	at  time.Time
	cpu float64 // seconds of thread CPU time one kernel run took
}

type calibrator struct {
	mu      sync.Mutex
	samples []calSample
	stop    chan struct{}
	done    chan struct{}
}

// threadCPU is the calling thread's CPU time. getrusage counts it in
// scheduler ticks of 4 ms; CLOCK_THREAD_CPUTIME_ID is exact.
func threadCPU() float64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// kernel is the fixed piece of work: inflating 64 KiB of trace-like text
// eight times over. It is branches and table look-ups, like the decode loops
// of the program under test, on a working set small enough for a core's
// private caches, so that the program's own memory traffic bears on it little.
// (A kernel streaming through 8 MiB beside it tracked the host no better.)
type kernel struct {
	packed []byte
	out    bytes.Buffer
}

func newKernel() *kernel {
	r := rand.New(rand.NewSource(1))
	var text bytes.Buffer
	for text.Len() < 64<<10 {
		for f := 0; f < 12; f++ {
			text.WriteString(string(rune('a'+r.Intn(6))) + "|")
			text.WriteString(time.Unix(1453075200+int64(r.Intn(86400)), 0).UTC().Format("20060102150405"))
			text.WriteByte('|')
		}
		text.WriteByte('\n')
	}
	var packed bytes.Buffer
	w, _ := flate.NewWriter(&packed, flate.DefaultCompression) // the level is valid
	w.Write(text.Bytes())
	w.Close()
	return &kernel{packed: packed.Bytes()}
}

func (k *kernel) run() {
	for rep := 0; rep < 8; rep++ {
		k.out.Reset()
		io.Copy(&k.out, flate.NewReader(bytes.NewReader(k.packed)))
	}
}

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		// The CPU clock read is the thread's: the goroutine stays on one.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		k := newKernel()
		tick := time.NewTicker(calibEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
			c0 := threadCPU()
			k.run()
			s := calSample{at: time.Now(), cpu: threadCPU() - c0}
			c.mu.Lock()
			c.samples = append(c.samples, s)
			c.mu.Unlock()
		}
	}()
	return c
}

func (c *calibrator) close() {
	close(c.stop)
	<-c.done
}

// speed is the host's speed between from and to as a share of the reference
// speed: calibNominal over the mean cost of the kernel runs in the interval
// (1 when there were none).
func (c *calibrator) speed(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range c.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			sum += s.cpu
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return calibNominal / (sum / float64(n))
}
