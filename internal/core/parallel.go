package core

import (
	"context"
	"sync"
	"time"
)

// This file is the schedule stage of the engine's one scan pipeline (plan →
// schedule → leaf walk): a bounded-worker scheduler that runs a plan's
// independent units on a pool of Options.ScanWorkers workers while emitting
// their results to the caller strictly in unit order (so answers are
// bit-for-bit the same at every width, which the cluster parity contract
// depends on), plus the two singleflight layers that keep a parallel read
// side from duplicating work: a per-chunk-key flight group so concurrent
// workers (and concurrent queries) inflating the same chunk decompress it
// once, and a per-query-key result flight so a thundering herd of identical
// explorations costs one scan.

// scanWorker is the per-worker state a scan unit runs under: a stable
// worker id (call sites key per-worker fold state off it) and the profile
// the unit accrues into — private to the worker on a fan-out and merged
// into the query profile afterwards, so workers never contend on shared
// counters mid-scan.
type scanWorker struct {
	id   int
	prof *Profile // nil on unprofiled scans
}

// unitOut is one unit's completion record, filled by a worker and consumed
// by the in-order emitter.
type unitOut struct {
	v    any
	err  error
	done bool
}

// scanScheduler coordinates one fan-out: workers claim unit indices in
// order (bounded to maxAhead beyond the emit cursor, so a slow head unit
// cannot pile up unbounded decoded tables behind it), and the calling
// goroutine emits completed units strictly in index order.
type scanScheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	out     []unitOut
	next    int // next unclaimed unit index
	emitted int // units already handed to emit
	stopped bool
}

// runUnits is the only executor of scan units: it calls run(w, i) for every
// unit i in [0, n) — typically one (leaf, table) pair — on a pool of up to
// `workers` workers, and emit(i, v) with each unit's value on the calling
// goroutine in strict unit order. Units must not touch shared mutable
// state: everything they produce goes back through the return value. The
// first error — a unit failure, an emit failure, or ctx expiring (checked
// before every unit) — wins: no further units start, in-flight workers
// drain, and the lowest-index error is returned.
//
// A pool of one — ScanWorkers 1, or a single unit — is the calling
// goroutine itself: units run inline in order, accruing straight into prof.
// A wider pool gives each worker a private profile; those and the
// per-worker wall/decode timings fold into prof afterwards (worker entries
// merged by id), so every width reports the same summed counters.
func (e *Engine) runUnits(ctx context.Context, workers, n int, prof *Profile, run func(w *scanWorker, i int) (any, error), emit func(i int, v any) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sw := &scanWorker{prof: prof}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := run(sw, i)
			if err != nil {
				return err
			}
			if err := emit(i, v); err != nil {
				return err
			}
		}
		return nil
	}
	s := &scanScheduler{out: make([]unitOut, n)}
	s.cond = sync.NewCond(&s.mu)
	// maxAhead bounds how far claims may run past the emit cursor, keeping
	// the memory held by completed-but-unemitted units proportional to the
	// worker count rather than the scan length.
	maxAhead := workers * 4

	wprofs := make([]*Profile, workers)
	wstats := make([]WorkerProfile, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sw := &scanWorker{id: w}
			if prof != nil {
				sw.prof = &Profile{}
				wprofs[w] = sw.prof
			}
			st := &wstats[w]
			st.Worker = w
			for {
				s.mu.Lock()
				for !s.stopped && s.next < n && s.next-s.emitted >= maxAhead {
					s.cond.Wait()
				}
				if s.stopped || s.next >= n {
					s.mu.Unlock()
					return
				}
				i := s.next
				s.next++
				s.mu.Unlock()

				var v any
				err := ctx.Err()
				if err == nil {
					t0 := time.Now()
					v, err = run(sw, i)
					st.WallNS += time.Since(t0).Nanoseconds()
					st.Units++
				}
				s.mu.Lock()
				s.out[i] = unitOut{v: v, err: err, done: true}
				if err != nil {
					s.stopped = true
				}
				s.cond.Broadcast()
				s.mu.Unlock()
				if err != nil {
					return
				}
			}
		}(w)
	}

	// Emit loop: wait for each unit in order, hand it to emit, release its
	// slot. A stop observed while unit i is still in flight falls through
	// to the post-drain error scan below.
	var firstErr error
	s.mu.Lock()
	for i := 0; i < n; i++ {
		for !s.out[i].done && !s.stopped {
			s.cond.Wait()
		}
		if !s.out[i].done {
			break // stopped with i mid-flight or never claimed
		}
		o := s.out[i]
		if o.err != nil {
			firstErr = o.err
			s.stopped = true
			break
		}
		s.out[i] = unitOut{done: true} // release the value early
		s.emitted++
		s.cond.Broadcast()
		s.mu.Unlock()
		err := emit(i, o.v)
		s.mu.Lock()
		if err != nil {
			firstErr = err
			s.stopped = true
			break
		}
	}
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	wg.Wait()
	if firstErr == nil {
		// A worker stopped the run while the emitter was waiting on an
		// earlier unit: the lowest-index error wins deterministically.
		for i := range s.out {
			if s.out[i].err != nil {
				firstErr = s.out[i].err
				break
			}
		}
	}

	if prof != nil {
		if workers > prof.ScanWorkers {
			prof.ScanWorkers = workers
		}
		prof.ParallelUnits += n
		for w, wp := range wprofs {
			if wp != nil {
				wstats[w].DecodeNS = wp.DecodeNS
				prof.Add(*wp)
			}
		}
		prof.Workers = mergeWorkers(prof.Workers, wstats)
	}
	e.met.parallelScans.Inc()
	e.met.parallelUnits.Add(int64(n))
	return firstErr
}

// scanWorkers returns the configured fan-out (immutable after Open).
func (e *Engine) scanWorkers() int { return e.opts.ScanWorkers }

// mergeWorkers folds src's per-worker stats into dst by worker id, keeping
// the result sorted — repeated fan-outs within one query (summary rebuild,
// then row fetch) accumulate per worker instead of duplicating entries.
func mergeWorkers(dst, src []WorkerProfile) []WorkerProfile {
	if len(src) == 0 {
		return dst
	}
	byID := make(map[int]int, len(dst))
	for i := range dst {
		byID[dst[i].Worker] = i
	}
	for _, s := range src {
		if s.Units == 0 && s.WallNS == 0 {
			continue
		}
		if i, ok := byID[s.Worker]; ok {
			dst[i].Units += s.Units
			dst[i].WallNS += s.WallNS
			dst[i].DecodeNS += s.DecodeNS
			continue
		}
		byID[s.Worker] = len(dst)
		dst = append(dst, s)
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Worker < dst[j-1].Worker; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}
