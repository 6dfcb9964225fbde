// Package lifecycle is SPATE's background maintenance daemon — the first
// component of the system that acts on its own clock. A Manager supervises
// three job families over one engine:
//
//   - decay: runs the data fungus on a schedule, so the paper's storage
//     objective O1 stays bounded over months of ingest without an operator
//     ever calling Engine.DecayRun.
//   - scrub: walks DFS blocks verifying replica checksums, quarantines
//     corrupt copies and restores the replication factor.
//   - compact: rewrites legacy whole-blob leaves into chunked segments and
//     merges undersized chunks, bit-for-bit query-equivalent.
//
// Each enabled job runs on its own jittered ticker (jitter keeps a fleet
// of shard nodes from scrubbing in lockstep), can be paused and resumed as
// a group, and can be triggered synchronously — the /api/lifecycle POST
// path. Every run lands in a bounded history ring with its duration,
// summary line and detail counters, and feeds the spate_lifecycle_*
// metrics. A panicking job is caught and recorded as a failed run; the
// scheduler survives.
package lifecycle

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"spate/internal/core"
	"spate/internal/obs"
)

// Config parameterizes a Manager. The zero value disables every job (each
// job runs only when its interval is positive).
type Config struct {
	// DecayInterval is the cadence of scheduled decay sweeps (0 disables).
	DecayInterval time.Duration
	// ScrubInterval is the cadence of DFS scrub + re-replication passes.
	ScrubInterval time.Duration
	// CompactInterval is the cadence of segment compaction sweeps.
	CompactInterval time.Duration
	// Jitter spreads each sleep uniformly into ±Jitter×interval (default
	// 0.1; negative disables). Keeps shard fleets from sweeping in phase.
	Jitter float64
	// History is the number of run records retained (default 32).
	History int
	// Now supplies the decay instant (default time.Now) — tests inject a
	// fake clock to age data without sleeping.
	Now func() time.Time
	// Obs selects the metrics registry (default obs.Default).
	Obs *obs.Registry
	// Logf, when set, receives a one-line summary of every run (e.g.
	// log.Printf) — the operator-visible trail the server wires up.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.History <= 0 {
		c.History = 32
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Obs == nil {
		c.Obs = obs.Default
	}
	if c.Jitter == 0 {
		c.Jitter = 0.1
	}
	return c
}

// RunRecord is one completed (or failed) job run.
type RunRecord struct {
	Job      string           `json:"job"`
	Start    time.Time        `json:"start"`
	Duration time.Duration    `json:"duration"`
	Summary  string           `json:"summary"`
	Err      string           `json:"error,omitempty"`
	Details  map[string]int64 `json:"details,omitempty"`
}

// JobStatus describes one job family in Status.
type JobStatus struct {
	Name     string        `json:"name"`
	Interval time.Duration `json:"interval"` // 0 = manual-only
	Runs     int64         `json:"runs"`
	Errors   int64         `json:"errors"`
	LastRun  *RunRecord    `json:"last_run,omitempty"`
}

// Status is the manager's observable state — the /api/lifecycle GET body.
type Status struct {
	Paused  bool        `json:"paused"`
	Jobs    []JobStatus `json:"jobs"`
	History []RunRecord `json:"history"`
}

// job is one supervised job family.
type job struct {
	name     string
	interval time.Duration
	run      func(ctx context.Context) (string, map[string]int64, error)

	runs   int64
	errors int64
	last   *RunRecord
}

// Manager supervises the background jobs of one engine.
type Manager struct {
	eng *core.Engine
	cfg Config

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	met managerMetrics

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string
	paused  bool
	started bool
	closed  bool
	history []RunRecord // ring, newest last
	rng     *rand.Rand
}

type managerMetrics struct {
	runs    map[string]*obs.Counter
	errs    map[string]*obs.Counter
	seconds map[string]*obs.Histogram

	bytesFreed     *obs.Counter
	blocksRepaired *obs.Counter
	chunksMerged   *obs.Counter
}

// Jobs the manager knows, in display order.
const (
	JobDecay   = "decay"
	JobScrub   = "scrub"
	JobCompact = "compact"
)

// New builds a manager over eng. Jobs whose interval is zero never fire on
// their own but remain available to Trigger. Call Start to begin
// scheduling and Close to stop.
func New(eng *core.Engine, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		eng:    eng,
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*job),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	m.met = managerMetrics{
		runs:    make(map[string]*obs.Counter),
		errs:    make(map[string]*obs.Counter),
		seconds: make(map[string]*obs.Histogram),
		bytesFreed: cfg.Obs.Counter("spate_lifecycle_bytes_freed_total",
			"Compressed bytes reclaimed by scheduled decay."),
		blocksRepaired: cfg.Obs.Counter("spate_lifecycle_blocks_repaired_total",
			"DFS replicas restored by the scrubber."),
		chunksMerged: cfg.Obs.Counter("spate_lifecycle_chunks_merged_total",
			"Segment chunks merged away by the compactor."),
	}
	add := func(name string, interval time.Duration, run func(context.Context) (string, map[string]int64, error)) {
		m.jobs[name] = &job{name: name, interval: interval, run: run}
		m.order = append(m.order, name)
		m.met.runs[name] = cfg.Obs.Counter("spate_lifecycle_runs_total",
			"Completed lifecycle job runs by job.", "job", name)
		m.met.errs[name] = cfg.Obs.Counter("spate_lifecycle_errors_total",
			"Failed lifecycle job runs by job.", "job", name)
		m.met.seconds[name] = cfg.Obs.Histogram("spate_lifecycle_run_seconds",
			"Lifecycle job run duration by job.", nil, "job", name)
	}
	add(JobDecay, cfg.DecayInterval, m.runDecay)
	add(JobScrub, cfg.ScrubInterval, m.runScrub)
	add(JobCompact, cfg.CompactInterval, m.runCompact)
	return m
}

// Start launches one scheduler goroutine per job with a positive interval.
// Idempotent; a closed manager does not restart.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started || m.closed {
		return
	}
	m.started = true
	for _, name := range m.order {
		j := m.jobs[name]
		if j.interval <= 0 {
			continue
		}
		m.wg.Add(1)
		go m.schedule(j)
	}
}

// Close stops the schedulers and waits for in-flight runs to finish.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	m.wg.Wait()
}

// Act runs one operator action, the verbs every maintenance surface
// serves: "status" reports the manager's Status; "pause" suspends
// scheduled runs (a fire that lands while paused is skipped, not queued)
// and "resume" lifts that, each then reporting the Status; "trigger" runs
// job by hand — paused or not — and answers its RunRecord (see Trigger).
func (m *Manager) Act(action, job string) (any, error) {
	switch action {
	case "trigger":
		return m.Trigger(job)
	case "pause", "resume":
		m.mu.Lock()
		m.paused = action == "pause"
		m.mu.Unlock()
	case "status":
	default:
		return nil, fmt.Errorf("lifecycle: unknown action %q", action)
	}
	return m.Status(), nil
}

// Trigger runs the named job synchronously, regardless of pause state, and
// returns its record.
func (m *Manager) Trigger(name string) (RunRecord, error) {
	m.mu.Lock()
	j, ok := m.jobs[name]
	closed := m.closed
	m.mu.Unlock()
	if !ok {
		names := make([]string, 0, len(m.jobs))
		names = append(names, m.order...)
		sort.Strings(names)
		return RunRecord{}, fmt.Errorf("lifecycle: unknown job %q (have %v)", name, names)
	}
	if closed {
		return RunRecord{}, fmt.Errorf("lifecycle: manager closed")
	}
	rec := m.runJob(j)
	if rec.Err != "" {
		return rec, fmt.Errorf("lifecycle: %s: %s", name, rec.Err)
	}
	return rec, nil
}

// Status snapshots the manager's state, newest history first.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{Paused: m.paused}
	for _, name := range m.order {
		j := m.jobs[name]
		js := JobStatus{Name: j.name, Interval: j.interval, Runs: j.runs, Errors: j.errors}
		if j.last != nil {
			cp := *j.last
			js.LastRun = &cp
		}
		st.Jobs = append(st.Jobs, js)
	}
	st.History = make([]RunRecord, 0, len(m.history))
	for i := len(m.history) - 1; i >= 0; i-- {
		st.History = append(st.History, m.history[i])
	}
	return st
}

// schedule is one job's ticker loop.
func (m *Manager) schedule(j *job) {
	defer m.wg.Done()
	for {
		t := time.NewTimer(m.jittered(j.interval))
		select {
		case <-m.ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		m.mu.Lock()
		paused := m.paused
		m.mu.Unlock()
		if paused {
			continue
		}
		m.runJob(j)
	}
}

// jittered spreads an interval into [interval×(1−j), interval×(1+j)].
func (m *Manager) jittered(interval time.Duration) time.Duration {
	j := m.cfg.Jitter
	if j <= 0 {
		return interval
	}
	if j > 1 {
		j = 1
	}
	m.mu.Lock()
	f := 1 + (m.rng.Float64()*2-1)*j
	m.mu.Unlock()
	d := time.Duration(float64(interval) * f)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// runJob executes one run with panic supervision and records the result.
func (m *Manager) runJob(j *job) RunRecord {
	rec := RunRecord{Job: j.name, Start: time.Now()}
	func() {
		defer func() {
			if p := recover(); p != nil {
				rec.Err = fmt.Sprintf("panic: %v", p)
			}
		}()
		summary, details, err := j.run(m.ctx)
		rec.Summary, rec.Details = summary, details
		if err != nil {
			rec.Err = err.Error()
		}
	}()
	rec.Duration = time.Since(rec.Start)

	m.met.seconds[j.name].Observe(rec.Duration.Seconds())
	if rec.Err != "" {
		m.met.errs[j.name].Inc()
	} else {
		m.met.runs[j.name].Inc()
	}
	if m.cfg.Logf != nil {
		if rec.Err != "" {
			m.cfg.Logf("lifecycle: %s failed after %s: %s", j.name, rec.Duration.Round(time.Millisecond), rec.Err)
		} else {
			m.cfg.Logf("lifecycle: %s: %s (%s)", j.name, rec.Summary, rec.Duration.Round(time.Millisecond))
		}
	}

	m.mu.Lock()
	if rec.Err != "" {
		j.errors++
	} else {
		j.runs++
	}
	cp := rec
	j.last = &cp
	m.history = append(m.history, rec)
	if over := len(m.history) - m.cfg.History; over > 0 {
		m.history = append(m.history[:0], m.history[over:]...)
	}
	m.mu.Unlock()
	return rec
}

func (m *Manager) runDecay(context.Context) (string, map[string]int64, error) {
	rep, err := m.eng.DecayRun(m.cfg.Now(), core.DecayBudget{})
	m.met.bytesFreed.Add(rep.BytesFreed)
	summary := fmt.Sprintf("%d leaves decayed, %d nodes pruned, %d bytes freed",
		rep.LeavesDecayed, rep.NodesPruned, rep.BytesFreed)
	details := map[string]int64{
		"leaves_decayed": int64(rep.LeavesDecayed),
		"nodes_pruned":   int64(rep.NodesPruned),
		"bytes_freed":    rep.BytesFreed,
		"refs_deleted":   int64(rep.RefsDeleted),
	}
	return summary, details, err
}

func (m *Manager) runScrub(context.Context) (string, map[string]int64, error) {
	res, err := m.eng.FS().Scrub()
	m.met.blocksRepaired.Add(int64(res.ReplicasRestored))
	summary := fmt.Sprintf("%d blocks checked, %d corrupt + %d missing replicas quarantined, %d replicas restored (%d bytes)",
		res.BlocksChecked, res.CorruptReplicas, res.MissingReplicas, res.ReplicasRestored, res.BytesRepaired)
	if res.UnrecoverableBlocks > 0 {
		summary += fmt.Sprintf(", %d blocks UNRECOVERABLE", res.UnrecoverableBlocks)
	}
	details := map[string]int64{
		"blocks_checked":    int64(res.BlocksChecked),
		"replicas_checked":  int64(res.ReplicasChecked),
		"corrupt_replicas":  int64(res.CorruptReplicas),
		"missing_replicas":  int64(res.MissingReplicas),
		"replicas_restored": int64(res.ReplicasRestored),
		"bytes_repaired":    res.BytesRepaired,
		"unrecoverable":     int64(res.UnrecoverableBlocks),
	}
	return summary, details, err
}

func (m *Manager) runCompact(ctx context.Context) (string, map[string]int64, error) {
	rep, err := m.eng.Compact(ctx, core.CompactOptions{})
	m.met.chunksMerged.Add(int64(rep.ChunksMerged))
	summary := fmt.Sprintf("%d/%d leaves rewritten (%d blobs converted, %d chunks merged), %d -> %d bytes",
		rep.LeavesRewritten, rep.LeavesExamined, rep.BlobsConverted, rep.ChunksMerged,
		rep.BytesBefore, rep.BytesAfter)
	details := map[string]int64{
		"leaves_examined":  int64(rep.LeavesExamined),
		"leaves_rewritten": int64(rep.LeavesRewritten),
		"blobs_converted":  int64(rep.BlobsConverted),
		"chunks_merged":    int64(rep.ChunksMerged),
		"bytes_before":     rep.BytesBefore,
		"bytes_after":      rep.BytesAfter,
	}
	return summary, details, err
}
