package harness

import (
	"sync/atomic"
	"time"
)

// ListSource hands out the ops of a pre-generated list, shared by the
// clients that call it, wrapping around at its end.
func ListSource(ops []Op) func() *Job {
	jobs := make([]Job, len(ops))
	paths := make(map[string]string)
	for i, op := range ops {
		k := op.Key()
		if paths[k] == "" {
			paths[k] = op.Path()
		}
		jobs[i] = Job{Op: op, Path: paths[k]}
	}
	var next atomic.Int64
	return func() *Job { return &jobs[int(next.Add(1)-1)%len(jobs)] }
}

// OnceSource hands out each op once, in order, then ends its client: the
// prefill that puts a fixed query set into the caches before any timing.
func OnceSource(ops []Op) func() *Job {
	i := 0
	return func() *Job {
		if i == len(ops) {
			return nil
		}
		i++
		return &Job{Op: ops[i-1], Path: ops[i-1].Path()}
	}
}

// StreamSource is the reader of stream-mixed. It takes its classes from
// ops and resolves each window against the writer's progress when the
// request is sent: explorations cover the last stretch of data time
// appended so far, the epoch being written included; T1 reads the newest
// epoch certain to be complete and behind the one before the writer's; T3
// aggregates the last complete hours. traceFrom is where the data starts.
func StreamSource(spec Spec, traceFrom time.Time, ops []Op, f *Feed, feedEpochs []time.Time) func() *Job {
	var next atomic.Int64
	return func() *Job {
		n := next.Add(1) - 1
		class := ops[int(n)%len(ops)].Class
		done := int(f.EpochsDone.Load())
		if done >= len(feedEpochs) {
			done = len(feedEpochs) - 1
		}
		cur := feedEpochs[done] // start of the epoch being written
		op := Op{Class: class}
		j := &Job{}
		switch class {
		case ClassExplore:
			// A start that differs by some minutes every time asks for the
			// same epochs under a new key: no answer comes from the result
			// cache, whose hits would make the class two-peaked.
			op.To = cur.Add(EpochLen)
			op.From = op.To.Add(-spec.Shape[class]).Add(-time.Duration(n%29+1) * time.Minute)
			op.Attr = "CDR.downflux"
			j.CompleteTo = cur
		case ClassT1:
			op.From, op.To = cur.Add(-2*EpochLen), cur.Add(-EpochLen)
		default:
			op.From, op.To = cur.Add(-spec.Shape[class]), cur
		}
		if op.From.Before(traceFrom) {
			op.From = traceFrom
		}
		j.Op, j.Path = op, op.Path()
		return j
	}
}
