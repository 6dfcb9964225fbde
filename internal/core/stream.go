package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spate/internal/memtable"
	"spate/internal/obs"
	"spate/internal/telco"
	"spate/internal/wal"
)

// ErrBackpressure is returned by Streamer.Append when the unsealed
// backlog (memtable plus queued batches) stays over StreamerOptions.
// MaxPending for longer than BackpressureWait. The caller should slow
// down and retry; nothing of the rejected batch was applied.
var ErrBackpressure = errors.New("core: streamer backpressure: unsealed backlog over limit")

// BackpressureError is the typed form of ErrBackpressure: it carries how
// long the producer should back off before retrying, derived from the
// backlog the rejected append actually saw. errors.Is(err,
// ErrBackpressure) keeps working through Unwrap, so existing callers
// branch unchanged; HTTP layers use errors.As to surface RetryAfter as
// an honest Retry-After header instead of a constant.
type BackpressureError struct {
	// RetryAfter is the suggested backoff before the next attempt.
	RetryAfter time.Duration
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("%v (retry in %v)", ErrBackpressure, e.RetryAfter)
}

func (e *BackpressureError) Unwrap() error { return ErrBackpressure }

// ErrStaleEpoch is returned by Streamer.Append for rows whose epoch has
// already sealed into compressed segments — the streaming counterpart of
// the batch path's out-of-order rejection. Nothing of the rejected batch
// was applied.
var ErrStaleEpoch = errors.New("core: row epoch already sealed")

// ErrStreamerClosed is returned by operations on a closed Streamer.
var ErrStreamerClosed = errors.New("core: streamer closed")

// StreamerOptions configures the continuous ingest path.
type StreamerOptions struct {
	// WALDir is the local directory holding the write-ahead log. Required:
	// the DFS is write-once, so the WAL lives beside it on the plain file
	// system.
	WALDir string
	// SegmentBytes, Sync and GroupWindow pass through to the WAL (see
	// wal.Options).
	SegmentBytes int64
	Sync         wal.SyncPolicy
	GroupWindow  time.Duration
	// QueueDepth bounds the append queue in batches (default 256).
	QueueDepth int
	// MaxPending bounds the unsealed backlog in bytes — buffered memtable
	// rows plus queued batches (default 64 MiB). Appends over the bound
	// block up to BackpressureWait, then fail with ErrBackpressure.
	MaxPending int64
	// BackpressureWait is how long an Append blocks for the backlog to
	// drop below MaxPending before giving up (default 2 s).
	BackpressureWait time.Duration
}

func (o StreamerOptions) withDefaults() StreamerOptions {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 64 << 20
	}
	if o.BackpressureWait <= 0 {
		o.BackpressureWait = 2 * time.Second
	}
	return o
}

// appendBatch is one Append call in flight between the caller and the
// writer goroutine. A batch with no records is a barrier: it flows
// through the pipeline and completes once everything before it applied.
type appendBatch struct {
	table   string
	recs    []telco.Record
	eps     []telco.Epoch // per-record epoch, precomputed by Append
	bytes   int64
	applied bool
	err     error
	done    chan error
}

type streamMetrics struct {
	rows       *obs.Counter
	batches    *obs.Counter
	bpWaits    *obs.Counter
	bpErrors   *obs.Counter
	stale      *obs.Counter
	seals      *obs.Counter
	sealedRows *obs.Counter
	appendSec  *obs.Histogram
}

// Streamer is the engine's continuous ingest front end: Append logs rows
// to the WAL, makes them durable through one group commit per writer
// cycle, and inserts them into the memtable — from which queries serve
// them immediately (see the memtable union in ExploreContext). A sealer
// turns each epoch into compressed SPSG segments through the very same
// Ingest path batch snapshots take, bit-for-bit, once data time moves
// past it.
//
// One Streamer may be open per Engine. All methods are safe for
// concurrent use.
type Streamer struct {
	eng  *Engine
	log  *wal.Log
	mem  *memtable.Memtable
	opts StreamerOptions

	queue  chan *appendBatch
	queued atomic.Int64 // bytes accepted but not yet applied

	// sendMu makes {closed check; enqueue} atomic against Close closing
	// the queue channel.
	sendMu sync.RWMutex
	closed bool

	// mu orders the writer's {stale check; WAL append; memtable insert}
	// against the sealer's watermark advance: a row is either inserted
	// before its epoch seals (and the seal snapshot includes it) or
	// rejected as stale — never silently stranded in a sealed epoch.
	mu        sync.Mutex
	sealed    telco.Epoch // epochs <= sealed are closed to writes
	hasSealed bool
	maxSeen   telco.Epoch // newest row epoch appended or replayed
	hasSeen   bool
	segMax    map[uint64]telco.Epoch // per WAL segment: max epoch logged
	err       error                  // sticky I/O error; fails all later appends

	sealMu   sync.Mutex // serializes seals
	sealKick chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup

	met streamMetrics
}

// OpenStreamer opens the streaming ingest path over the engine: the WAL
// in opts.WALDir is created or recovered — surviving records of unsealed
// epochs replay into a fresh memtable and are immediately explorable
// again — and the writer and sealer goroutines start. Epochs the WAL
// still holds but the engine already sealed (the crash hit between seal
// and purge) are skipped, so replay never double-ingests.
func (e *Engine) OpenStreamer(opts StreamerOptions) (*Streamer, error) {
	opts = opts.withDefaults()
	if opts.WALDir == "" {
		return nil, fmt.Errorf("core: streamer: WALDir is required")
	}
	e.mu.RLock()
	finished := e.finished
	streaming := e.memt != nil
	e.mu.RUnlock()
	if finished {
		return nil, ErrFinalized
	}
	if streaming {
		return nil, fmt.Errorf("core: streamer: engine already has an open streamer")
	}
	log, err := wal.Open(opts.WALDir, wal.Options{
		SegmentBytes: opts.SegmentBytes,
		Sync:         opts.Sync,
		GroupWindow:  opts.GroupWindow,
		Obs:          e.opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	s := &Streamer{
		eng:      e,
		log:      log,
		mem:      memtable.New(e.opts.Obs),
		opts:     opts,
		queue:    make(chan *appendBatch, opts.QueueDepth),
		segMax:   make(map[uint64]telco.Epoch),
		sealKick: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	r := e.opts.Obs
	s.met = streamMetrics{
		rows:       r.Counter("spate_stream_append_rows_total", "Rows accepted by the streaming ingest path."),
		batches:    r.Counter("spate_stream_append_batches_total", "Append batches accepted by the streaming ingest path."),
		bpWaits:    r.Counter("spate_stream_backpressure_waits_total", "Appends that blocked on the unsealed-backlog bound."),
		bpErrors:   r.Counter("spate_stream_backpressure_errors_total", "Appends rejected with ErrBackpressure."),
		stale:      r.Counter("spate_stream_stale_rows_total", "Rows rejected because their epoch had already sealed."),
		seals:      r.Counter("spate_stream_seals_total", "Epochs sealed from the memtable into compressed segments."),
		sealedRows: r.Counter("spate_stream_sealed_rows_total", "Rows sealed from the memtable into compressed segments."),
		appendSec:  r.Histogram("spate_stream_append_seconds", "Append latency: enqueue to durable + explorable.", obs.ExpBuckets(1e-5, 4, 10)),
	}
	r.GaugeFunc("spate_stream_pending_bytes", "Unsealed backlog: memtable plus queued batches.", func() float64 {
		return float64(s.pending())
	})
	last, sealedBefore := e.LastEpoch()
	if sealedBefore {
		s.sealed, s.hasSealed = last, true
	}
	// Crash recovery: replay the surviving WAL records of unsealed epochs.
	err = log.Replay(func(pos wal.Pos, payload []byte) error {
		table, rec, derr := decodeStreamPayload(payload)
		if derr != nil {
			return derr
		}
		ep, ierr := recordEpoch(table, rec)
		if ierr != nil {
			return ierr
		}
		if sealedBefore && ep <= last {
			return nil // sealed before the crash; the leaf already has it
		}
		if _, ierr := s.mem.Insert(table, rec); ierr != nil {
			return ierr
		}
		if ep > s.segMax[pos.Seg] {
			s.segMax[pos.Seg] = ep
		}
		if !s.hasSeen || ep > s.maxSeen {
			s.maxSeen, s.hasSeen = ep, true
		}
		return nil
	})
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("core: streamer recovery: %w", err)
	}
	e.attachMemtable(s.mem)
	s.wg.Add(2)
	go s.writer()
	go s.sealer()
	return s, nil
}

// Memtable exposes the unsealed-row table (tests, UI counters).
func (s *Streamer) Memtable() *memtable.Memtable { return s.mem }

// pending is the unsealed backlog the backpressure bound applies to.
func (s *Streamer) pending() int64 { return s.queued.Load() + s.mem.Bytes() }

// recordEpoch derives a record's epoch from its timestamp attribute.
func recordEpoch(table string, rec telco.Record) (telco.Epoch, error) {
	schema := telco.SchemaByName(table)
	if schema == nil {
		return 0, fmt.Errorf("core: streamer: unknown schema %q", table)
	}
	if len(rec) != len(schema.Fields) {
		return 0, fmt.Errorf("core: streamer: %s row has %d fields, want %d", table, len(rec), len(schema.Fields))
	}
	tsIdx := schema.FieldIndex(telco.AttrTS)
	if tsIdx < 0 || rec[tsIdx].IsNull() {
		return 0, fmt.Errorf("core: streamer: %s row lacks a timestamp", table)
	}
	return telco.EpochOf(rec[tsIdx].Time()), nil
}

// encodeStreamPayload renders one WAL record payload: the table name, a
// newline, then the row's wire-text line (which escapes raw newlines).
func encodeStreamPayload(table string, rec telco.Record) []byte {
	var b strings.Builder
	b.Grow(len(table) + 1 + 16*len(rec))
	b.WriteString(table)
	b.WriteByte('\n')
	rec.EncodeLine(&b)
	return []byte(b.String())
}

// decodeStreamPayload parses a WAL record payload back into its row.
func decodeStreamPayload(payload []byte) (table string, rec telco.Record, err error) {
	i := bytes.IndexByte(payload, '\n')
	if i < 0 {
		return "", nil, fmt.Errorf("core: streamer: malformed WAL payload (no table header)")
	}
	table = string(payload[:i])
	schema := telco.SchemaByName(table)
	if schema == nil {
		return "", nil, fmt.Errorf("core: streamer: WAL payload for unknown schema %q", table)
	}
	rec, err = telco.DecodeLine(schema, string(payload[i+1:]))
	if err != nil {
		return "", nil, fmt.Errorf("core: streamer: decode WAL payload: %w", err)
	}
	return table, rec, nil
}

// Append accepts one batch of rows of the named table. It returns once
// every row is logged to the WAL, made durable under the configured sync
// policy (one group commit covers the whole writer cycle) and visible to
// queries through the memtable — time-to-queryable is the latency of
// this call. Batches are all-or-nothing: a validation or stale-epoch
// failure applies none of the rows.
//
// When the unsealed backlog exceeds MaxPending the call blocks up to
// BackpressureWait for the sealer to catch up, then fails with
// ErrBackpressure. A canceled ctx abandons the wait; rows already
// handed to the writer may still apply (at-least-once under
// cancellation).
func (s *Streamer) Append(ctx context.Context, table string, recs []telco.Record) error {
	if len(recs) == 0 {
		return nil
	}
	start := time.Now()
	b := &appendBatch{
		table: table,
		recs:  recs,
		eps:   make([]telco.Epoch, len(recs)),
		done:  make(chan error, 1),
	}
	for i, rec := range recs {
		ep, err := recordEpoch(table, rec)
		if err != nil {
			return err
		}
		b.eps[i] = ep
		b.bytes += memtable.Size(rec)
	}
	if err := s.waitBackpressure(ctx, b.bytes); err != nil {
		return err
	}
	s.queued.Add(b.bytes)
	if err := s.enqueue(ctx, b); err != nil {
		s.queued.Add(-b.bytes)
		return err
	}
	select {
	case err := <-b.done:
		if err == nil {
			s.met.rows.Add(int64(len(recs)))
			s.met.batches.Inc()
			s.met.appendSec.Observe(time.Since(start).Seconds())
		}
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// waitBackpressure blocks while the backlog is over the bound, up to
// BackpressureWait.
func (s *Streamer) waitBackpressure(ctx context.Context, add int64) error {
	if s.pending()+add <= s.opts.MaxPending {
		return nil
	}
	s.met.bpWaits.Inc()
	deadline := time.NewTimer(s.opts.BackpressureWait)
	defer deadline.Stop()
	poll := time.NewTicker(time.Millisecond)
	defer poll.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.done:
			return ErrStreamerClosed
		case <-deadline.C:
			s.met.bpErrors.Inc()
			return &BackpressureError{RetryAfter: s.retryAfterHint(add)}
		case <-poll.C:
			if s.pending()+add <= s.opts.MaxPending {
				return nil
			}
		}
	}
}

// retryAfterHint sizes the backoff handed to a backpressured producer:
// a half-wait floor plus a term proportional to how far over the bound
// the backlog is, clamped so a wedged sealer never hints hours. A deeper
// overage hints a longer absence, so producers thin out in proportion to
// the congestion they caused.
func (s *Streamer) retryAfterHint(add int64) time.Duration {
	wait := s.opts.BackpressureWait
	hint := wait / 2
	if over := s.pending() + add - s.opts.MaxPending; over > 0 {
		hint += time.Duration(float64(wait) * float64(over) / float64(s.opts.MaxPending))
	}
	if max := 8 * wait; hint > max {
		hint = max
	}
	return hint
}

// enqueue hands a batch to the writer, atomically with the closed check.
func (s *Streamer) enqueue(ctx context.Context, b *appendBatch) error {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closed {
		return ErrStreamerClosed
	}
	select {
	case s.queue <- b:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// writer is the single goroutine draining the append queue. Each cycle
// applies every batch it could gather, so one WAL group commit covers
// them all.
func (s *Streamer) writer() {
	defer s.wg.Done()
	for {
		b, ok := <-s.queue
		if !ok {
			return
		}
		batch := []*appendBatch{b}
	gather:
		for len(batch) < 128 {
			select {
			case nb, more := <-s.queue:
				if !more {
					s.apply(batch)
					return
				}
				batch = append(batch, nb)
			default:
				break gather
			}
		}
		s.apply(batch)
	}
}

// apply runs one writer cycle: stale-check, WAL-append and
// memtable-insert each batch under s.mu (one critical section, so a
// sealer watermark can never slip between check and insert), then one
// group commit for durability, then completion. Rows become visible to
// queries at insert — up to one group-commit window before they are
// durable — but Append only returns after both.
func (s *Streamer) apply(batch []*appendBatch) {
	var maxPos wal.Pos
	havePos := false
	touched := make(map[telco.Epoch]struct{})
	s.mu.Lock()
	// Batch ingests bypass the streamer, so the engine's newest leaf can
	// run ahead of the stream watermark (a node bulk-loaded after its
	// streamer opened). Raise the watermark first: rows for such epochs
	// must reject as stale — the sealer could never ingest them behind
	// the existing leaves, and the query path would never surface them.
	if last, ok := s.eng.LastEpoch(); ok && (!s.hasSealed || last > s.sealed) {
		s.sealed, s.hasSealed = last, true
	}
	sticky := s.err
	for _, b := range batch {
		if sticky != nil {
			b.err = sticky
			continue
		}
		skip := false
		for _, ep := range b.eps {
			if s.hasSealed && ep <= s.sealed {
				b.err = fmt.Errorf("%w: epoch %v (sealed through %v)", ErrStaleEpoch, ep, s.sealed)
				s.met.stale.Add(int64(len(b.recs)))
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		for i, rec := range b.recs {
			pos, err := s.log.Append(encodeStreamPayload(b.table, rec))
			if err != nil {
				b.err = err
				s.err, sticky = err, err
				break
			}
			if ep := b.eps[i]; ep > s.segMax[pos.Seg] {
				s.segMax[pos.Seg] = ep
			}
			maxPos, havePos = pos, true
		}
		if b.err != nil {
			continue
		}
		for _, rec := range b.recs {
			if _, err := s.mem.Insert(b.table, rec); err != nil {
				b.err = err // unreachable after recordEpoch validation
				break
			}
		}
		if b.err != nil {
			continue
		}
		for _, ep := range b.eps {
			if !s.hasSeen || ep > s.maxSeen {
				s.maxSeen, s.hasSeen = ep, true
			}
			touched[ep] = struct{}{}
		}
		b.applied = true
	}
	s.mu.Unlock()

	var commitErr error
	if havePos {
		commitErr = s.log.Commit(maxPos)
		if commitErr != nil {
			s.mu.Lock()
			if s.err == nil {
				s.err = commitErr
			}
			s.mu.Unlock()
		}
	}
	// Fresh rows change answers: drop cached results whose served period
	// intersects a touched epoch.
	if len(touched) > 0 {
		ranges := make([]telco.TimeRange, 0, len(touched))
		for ep := range touched {
			ranges = append(ranges, telco.TimeRange{From: ep.Start(), To: ep.End()})
		}
		s.eng.cache.Invalidate(ranges)
	}
	for _, b := range batch {
		err := b.err
		if err == nil && b.applied {
			err = commitErr
		}
		s.queued.Add(-b.bytes)
		b.done <- err
	}
	select {
	case s.sealKick <- struct{}{}:
	default:
	}
}

// sealer seals epochs as data time moves past them.
func (s *Streamer) sealer() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.sealKick:
		}
		s.sealReady()
	}
}

// sealReady seals every buffered epoch strictly older than the newest
// row epoch observed — once rows of a later epoch arrive, the earlier
// epoch's period is over in data time. The trailing epoch stays open
// (and queryable) until newer data or an explicit SealAll closes it.
func (s *Streamer) sealReady() {
	for {
		s.mu.Lock()
		maxSeen, hasSeen := s.maxSeen, s.hasSeen
		s.mu.Unlock()
		if !hasSeen {
			return
		}
		e, ok := s.mem.MinEpoch()
		if !ok || e >= maxSeen {
			return
		}
		if err := s.sealEpoch(e); err != nil {
			return
		}
	}
}

// sealEpoch turns one buffered epoch into compressed segments: advance
// the watermark (no new writes land in the epoch), snapshot the
// memtable rows in arrival order, run them through the batch Ingest
// path — producing segments bit-for-bit identical to a batch ingest of
// the same rows — and only then drop the memtable copy. Queries observe
// either the memtable copy (before the leaf lands, filtered by
// LastEpoch) or the sealed leaf (after), never both and never neither.
func (s *Streamer) sealEpoch(e telco.Epoch) error {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	s.mu.Lock()
	if s.hasSealed && e <= s.sealed {
		s.mu.Unlock()
		return nil
	}
	s.sealed, s.hasSealed = e, true
	s.mu.Unlock()
	if snap := s.mem.SnapshotEpoch(e); snap != nil {
		if _, err := s.eng.Ingest(snap); err != nil {
			s.mu.Lock()
			if s.err == nil {
				s.err = err
			}
			s.mu.Unlock()
			return err
		}
		s.met.seals.Inc()
		s.met.sealedRows.Add(int64(snap.Rows()))
	}
	s.mem.DropEpoch(e)
	s.purgeWAL()
	return nil
}

// purgeWAL deletes the closed WAL segments whose every record now lives
// in sealed leaves: the contiguous prefix of closed segments whose
// maximum logged epoch is at or below the seal watermark.
func (s *Streamer) purgeWAL() {
	s.mu.Lock()
	if !s.hasSealed {
		s.mu.Unlock()
		return
	}
	var upTo uint64
	found := false
	for _, seg := range s.log.Segments() {
		if seg.Active {
			break
		}
		if mx, ok := s.segMax[seg.ID]; ok && mx > s.sealed {
			break
		}
		upTo, found = seg.ID, true
	}
	if found {
		for id := range s.segMax {
			if id <= upTo {
				delete(s.segMax, id)
			}
		}
	}
	s.mu.Unlock()
	if found {
		_ = s.log.Purge(upTo)
	}
}

// Flush blocks until every Append accepted before the call has applied
// (durable and visible). It does not seal anything.
func (s *Streamer) Flush(ctx context.Context) error {
	b := &appendBatch{applied: true, done: make(chan error, 1)}
	if err := s.enqueue(ctx, b); err != nil {
		return err
	}
	select {
	case err := <-b.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SealTo flushes the pipeline and seals every buffered epoch up to and
// including e, oldest first.
func (s *Streamer) SealTo(ctx context.Context, e telco.Epoch) error {
	if err := s.Flush(ctx); err != nil {
		return err
	}
	for {
		oldest, ok := s.mem.MinEpoch()
		if !ok || oldest > e {
			return nil
		}
		if err := s.sealEpoch(oldest); err != nil {
			return err
		}
	}
}

// SealAll flushes the pipeline and seals every buffered epoch — the
// clean-shutdown and test-parity entry point. Afterwards the memtable is
// empty and the WAL's sealed segments are purged.
func (s *Streamer) SealAll(ctx context.Context) error {
	if err := s.Flush(ctx); err != nil {
		return err
	}
	for {
		oldest, ok := s.mem.MinEpoch()
		if !ok {
			return nil
		}
		if err := s.sealEpoch(oldest); err != nil {
			return err
		}
	}
}

// AppendAndSeal is the streaming write as the HTTP surfaces serve it:
// Append the records (none is a no-op), then, when seal is set, SealAll.
func (s *Streamer) AppendAndSeal(ctx context.Context, table string, recs []telco.Record, seal bool) error {
	if err := s.Append(ctx, table, recs); err != nil {
		return err
	}
	if seal {
		return s.SealAll(ctx)
	}
	return nil
}

// Close stops the streamer: new appends are rejected, already-accepted
// batches finish applying, and the WAL flushes and closes. Buffered
// unsealed rows are NOT sealed — they stay in the WAL and replay on the
// next OpenStreamer; call SealAll first for a clean shutdown that leaves
// no log behind. The memtable stays attached to the engine, so unsealed
// rows remain explorable in-process.
func (s *Streamer) Close() error {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.sendMu.Unlock()
	close(s.done)
	s.wg.Wait()
	return s.log.Close()
}
