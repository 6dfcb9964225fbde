package main

import (
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"spate/benchmarks/harness"
)

// maxErrors caps the failure descriptions a report carries.
const maxErrors = 8

// run is the state of one workload run.
type wrun struct {
	spec   harness.Spec
	oracle *harness.Oracle
	srv    *server
	rep    *harness.Report

	attempted, failed int64
	checked           map[string]int   // answers compared with the oracle, per class
	acked             map[string]int64 // append rows acknowledged, per table
	ackedBytes        int64            // their text bytes
}

func (w *wrun) fail(format string, args ...any) {
	w.failed++
	if len(w.rep.Errors) < maxErrors {
		w.rep.Errors = append(w.rep.Errors, fmt.Sprintf(format, args...))
	}
}

// verify compares every outcome of a phase with the oracle. It runs after
// the phase, so that checking costs the timed window no CPU.
func (w *wrun) verify(p *harness.Phase) {
	for _, outs := range p.Outcomes {
		for i := range outs {
			o := &outs[i]
			w.attempted++
			switch {
			case o.Err != nil:
				w.fail("%s: %v", o.Job.Op.Class, o.Err)
			case o.Status != http.StatusOK:
				w.fail("%s %s: status %d", o.Job.Op.Class, o.Job.Path, o.Status)
			case o.Job.Body != nil:
				// An acknowledged append: finishStream checks the count.
				w.acked[o.Job.Table] += int64(o.Job.Rows)
				w.ackedBytes += o.Job.Bytes
			case !o.Job.CompleteTo.IsZero():
				// A stream read racing the writer: rows acknowledged before
				// the request must be there, rows beyond the window must not.
				lo, _ := w.oracle.Expect(harness.Op{Class: harness.ClassExplore, From: o.Job.Op.From, To: o.Job.CompleteTo})
				hi, _ := w.oracle.Expect(o.Job.Op)
				if o.Digest.Rows < lo.Rows || o.Digest.Rows > hi.Rows {
					w.fail("%s: rows %d outside [%d, %d]", o.Job.Op.Key(), o.Digest.Rows, lo.Rows, hi.Rows)
				}
				w.checked[o.Job.Op.Class]++
			default:
				if msg := w.oracle.Verify(o.Job.Op, o.Digest); msg != "" {
					w.fail("%s", msg)
				}
				w.checked[o.Job.Op.Class]++
			}
		}
	}
}

func (c *config) runWorkload(spec harness.Spec) (*harness.Report, error) {
	work, err := c.workDir(spec.Name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	w := &wrun{spec: spec, checked: make(map[string]int), acked: make(map[string]int64)}
	cal := startCalibrator()
	defer cal.close()
	w.rep = &harness.Report{Workload: spec.Name, Seed: c.seed, Clients: 2,
		ServerFlags: strings.Join(spec.ServerArgs, " "), Extra: make(map[string]float64)}

	// Inputs: the trace, and from its text the oracle.
	traceDir := filepath.Join(work, "trace")
	if err := c.genTrace(spec, traceDir); err != nil {
		return nil, err
	}
	epochs, err := harness.ListEpochs(traceDir)
	if err != nil {
		return nil, err
	}
	if w.oracle, err = harness.LoadOracle(traceDir, epochs); err != nil {
		return nil, err
	}
	from, to := w.oracle.Span()
	w.rep.TraceMiB = float64(w.oracle.RawBytes) / (1 << 20)
	w.rep.TraceRows = int64(len(w.oracle.CDR) + len(w.oracle.NMS))
	ingestBytes := w.oracle.RawBytes

	// stream-mixed: the server starts over BASE; FEED is moved aside and
	// goes in through /api/append.
	var feedEpochs []time.Time
	feedDir := filepath.Join(work, "feed")
	if spec.BaseEpochs > 0 {
		feedEpochs = epochs[spec.BaseEpochs:]
		if err := os.MkdirAll(feedDir, 0o755); err != nil {
			return nil, err
		}
		for _, e := range feedEpochs {
			name := e.Format(harness.TimeLayout)
			if err := os.Rename(filepath.Join(traceDir, name), filepath.Join(feedDir, name)); err != nil {
				return nil, err
			}
		}
		base, err := harness.LoadOracle(traceDir, epochs[:spec.BaseEpochs])
		if err != nil {
			return nil, err
		}
		ingestBytes = base.RawBytes
	}

	// Set-up, several times over where it is cheap; the last server stays.
	var setups, setupsAtRef []float64
	for i := 0; i < spec.Setups; i++ {
		if w.srv != nil {
			w.srv.stop()
		}
		boot := time.Now()
		w.srv, err = startServer(filepath.Join(c.bin, "spate-server"), traceDir,
			filepath.Join(work, "srvtmp"), filepath.Join(work, "server.log"), spec.ServerArgs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, w.srv.setupS)
		setupsAtRef = append(setupsAtRef, w.srv.setupS*cal.speed(boot, time.Now()))
	}
	defer w.srv.stop()
	w.rep.Extra["measured.setup_s"] = harness.Median(setups)
	setupS := harness.Median(setupsAtRef)
	hc := &http.Client{Timeout: 30 * time.Second}
	stored, err := w.srv.storedPerRawByte(hc, ingestBytes)
	if err != nil {
		return nil, err
	}

	clients := []*harness.Client{harness.NewClient(w.srv.base), harness.NewClient(w.srv.base)}
	defer clients[0].Close()
	defer clients[1].Close()

	// The seeded op list: more distinct ops than any window can use up,
	// and a long zipf draw where requests come from a fixed set and a
	// window gets through tens of thousands.
	nops := 8192
	if spec.FixedQueries > 0 {
		nops = 1 << 17
	}
	cells, err := harness.LoadCells(traceDir)
	if err != nil {
		return nil, err
	}
	fixed, ops := spec.Ops(c.seed, nops, from, to, cells)
	src := harness.ListSource(ops)
	sources := []func() *harness.Job{src, src}
	var fd *harness.Feed
	if spec.BaseEpochs > 0 {
		fd = harness.StartFeed(feedDir, feedEpochs)
		defer fd.Close()
		sources = []func() *harness.Job{fd.Next, harness.StreamSource(spec, from, ops, fd, feedEpochs)}
	}

	// Warm-up: first every query of a fixed set once, so the caches hold
	// them, then closed-loop load like the timed window's.
	if spec.Prefill {
		w.verify(harness.RunPhase(clients[:1], []func() *harness.Job{harness.OnceSource(fixed)}, time.Hour))
	}
	w.verify(harness.RunPhase(clients, sources, spec.Warmup))

	// The timed window.
	before, err := w.srv.scrape(hc)
	if err != nil {
		return nil, err
	}
	cpu0, self0, win0 := w.srv.cpuSeconds(), selfCPU(), time.Now()
	p := harness.RunPhase(clients, sources, time.Duration(c.seconds*float64(time.Second)))
	cpu1, self1 := w.srv.cpuSeconds(), selfCPU()
	w.rep.HostSpeed = cal.speed(win0, time.Now())
	after, err := w.srv.scrape(hc)
	if err != nil {
		return nil, err
	}
	w.verify(p)
	w.rep.Seconds = p.Wall
	w.rep.ClientBusyRatio = (self1 - self0) / (p.Wall * float64(len(clients)))

	// After the window: stream-mixed seals what it appended and counts it.
	if fd != nil {
		fd.Close()
		if fd.Err != nil {
			return nil, fd.Err
		}
		if fd.UsedUp.Load() {
			w.fail("the feed ran out inside the run: the reader ran without a writer")
		}
		w.finishStream(clients[0], feedEpochs)
		if stored, err = w.srv.storedPerRawByte(hc, ingestBytes+w.ackedBytes); err != nil {
			return nil, err
		}
	}

	w.rep.IngestMiB = float64(ingestBytes) / (1 << 20)
	w.metrics(p, setupS, cpu1-cpu0, stored, before, after)
	w.rep.Result.Attempted = w.attempted
	w.rep.Result.Failed = w.failed
	w.rep.Result.Correct = w.failed == 0
	return w.rep, nil
}

// selfCPU is the driver's own user+system CPU time.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// finishStream seals every appended epoch and checks that each table holds
// exactly the rows the server acknowledged.
func (w *wrun) finishStream(c *harness.Client, feedEpochs []time.Time) {
	seal := &harness.Job{Op: harness.Op{Class: harness.ClassAppend}, Path: "/api/append",
		Body: []byte(`{"table":"CDR","rows":[],"seal":true}`)}
	w.attempted++
	if o := c.Do(seal, time.Now()); o.Failed() {
		w.fail("final seal: status %d err %v", o.Status, o.Err)
		return
	}
	lo := feedEpochs[0]
	hi := feedEpochs[len(feedEpochs)-1].Add(harness.EpochLen)
	for _, table := range []string{"CDR", "NMS"} {
		q := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE ts >= '%s' AND ts < '%s'", table,
			lo.Format(harness.TimeLayout), hi.Format(harness.TimeLayout))
		// Digested like T4: one column, its values joined with ';'.
		cj := &harness.Job{Op: harness.Op{Class: harness.ClassT4}, Path: "/api/sql?q=" + url.QueryEscape(q)}
		w.attempted++
		o := c.Do(cj, time.Now())
		if o.Failed() {
			w.fail("count %s: status %d err %v", table, o.Status, o.Err)
			continue
		}
		if got, want := strings.Trim(o.Digest.Cells, ";"), fmt.Sprint(w.acked[table]); got != want {
			w.fail("after the final seal %s holds %s fed rows, %s were acknowledged", table, got, want)
		}
	}
}

// metrics turns the timed window into the end-to-end metrics, the latency
// table and the side readings.
func (w *wrun) metrics(p *harness.Phase, setupS, cpuS, stored float64, before, after harness.Scrape) {
	byClass := make(map[string][]harness.Sample)
	var reads []harness.Sample
	var opsPerS float64
	var okOps, winRows int64
	for ci, outs := range p.Outcomes {
		var ok int
		for i := range outs {
			o := &outs[i]
			if o.Failed() {
				continue
			}
			ok++
			s := harness.Sample{At: o.At, Ms: o.Ms}
			byClass[o.Job.Op.Class] = append(byClass[o.Job.Op.Class], s)
			if o.Job.Body != nil {
				winRows += int64(o.Job.Rows)
				continue
			}
			reads = append(reads, s)
		}
		okOps += int64(ok)
		opsPerS += float64(ok) / p.Elapsed[ci]
	}
	pct := func(xs []harness.Sample, q float64) float64 {
		// A slice needs about a hundred samples to carry a tail percentile.
		slices := len(xs) / 100
		if slices > 3 {
			slices = 3
		}
		if slices < 1 {
			slices = 1
		}
		return harness.SlicePercentile(xs, p.Wall, slices, q)
	}
	var medians []float64
	for _, class := range append(append([]string{}, harness.ReadClasses...), harness.ClassAppend) {
		xs := byClass[class]
		if len(xs) == 0 {
			continue
		}
		cs := harness.ClassStats{Class: class, Samples: len(xs), Checked: w.checked[class],
			P50: pct(xs, 50), P90: pct(xs, 90), P95: pct(xs, 95), P99: pct(xs, 99)}
		w.rep.Classes = append(w.rep.Classes, cs)
		if len(xs) >= 5 {
			medians = append(medians, cs.P50)
		}
	}

	if w.spec.BaseEpochs > 0 {
		w.rep.AppendRows = winRows
		w.rep.Seals = int64(after.Total("spate_stream_seals_total") - before.Total("spate_stream_seals_total"))
		w.rep.Extra["append_rows_s"] = float64(winRows) / p.Wall
		w.rep.Extra["read_ops_s"] = float64(len(reads)) / p.Wall
	}
	// Timings as measured, then at reference speed (see calib.go): a time
	// is multiplied by the host's speed during the window, a rate divided.
	measured := map[string]float64{
		"ops_s":           opsPerS,
		"explore_p50_ms":  pct(byClass[harness.ClassExplore], 50),
		"class_p50_gm_ms": harness.GeoMean(medians),
		"read_p90_ms":     pct(reads, 90),
		"cpu_s_per_kop":   harness.Div(cpuS, float64(okOps)/1000),
	}
	speed := w.rep.HostSpeed
	m := map[string]float64{
		"setup_s":                   setupS,
		"peak_rss_mb":               w.srv.peakRSSMB(),
		"stored_bytes_per_raw_byte": stored,
	}
	for name, v := range measured {
		w.rep.Extra["measured."+name] = v
		if name == "ops_s" {
			m[name] = v / speed
		} else {
			m[name] = v * speed
		}
	}
	w.rep.Result.Metrics = make(map[string]harness.Value, len(m))
	for _, em := range harness.EndToEnd {
		w.rep.Result.Metrics[em.Name] = harness.Value{Value: m[em.Name], Unit: em.Unit}
	}

	// Side readings from the server's own counters across the window: they
	// show that the workload has the shape it claims.
	delta := func(name string, labels ...string) float64 {
		return after.Total(name, labels...) - before.Total(name, labels...)
	}
	x := w.rep.Extra
	x["result_cache_hit_ratio"] = harness.Ratio(delta("spate_explore_cache_hits_total"), delta("spate_explore_cache_misses_total"))
	x["chunk_cache_hit_ratio"] = harness.Ratio(delta("spate_chunk_cache_hits_total"), delta("spate_chunk_cache_misses_total"))
	x["chunk_cache_mib"] = after.Total("spate_chunk_cache_bytes") / (1 << 20)
	x["result_cache_mib"] = after.Total("spate_result_cache_bytes") / (1 << 20)
	x["inflated_kb_per_op"] = harness.Div(delta("spate_decompress_out_bytes_total")/1024, float64(okOps))
	x["shed"] = delta("spate_serving_shed_total")
	x["server_cpu_s"] = cpuS
}
