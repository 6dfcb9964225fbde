package harness

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// BatchRows is the size of one /api/append request.
const BatchRows = 250

// Feed turns the FEED part of a trace into append jobs: epoch by epoch,
// CDR then NMS within an epoch, BatchRows lines a request, read line by
// line from the text files. An epoch is never sent after a later one —
// the server would reject its rows as stale.
type Feed struct {
	jobs chan *Job
	stop chan struct{}
	once sync.Once // close may be called twice
	done chan struct{}
	// Err is why the feed stopped early; valid once Close has returned.
	Err error

	// EpochsDone is how many feed epochs are acknowledged in full; the
	// reader sizes its windows by it.
	EpochsDone atomic.Int64
	// UsedUp is set once Next has found the feed empty.
	UsedUp atomic.Bool
}

// FeedFile is one table file of the feed.
type FeedFile struct {
	Path, Table string
	Epoch       int // index into the feed's epochs
}

// FeedOrder lists the files of the feed in sending order.
func FeedOrder(dir string, epochs []time.Time) []FeedFile {
	var out []FeedFile
	for i, e := range epochs {
		for _, t := range []string{"CDR", "NMS"} {
			out = append(out, FeedFile{filepath.Join(dir, e.Format(TimeLayout), t), t, i})
		}
	}
	return out
}

// StartFeed begins encoding batches ahead of the writer, a bounded number
// at a time, so that reading and JSON-encoding the text costs the timed
// window as little as possible.
func StartFeed(dir string, epochs []time.Time) *Feed {
	// 64 batches ahead: a few hundred ms of writer work, bounded memory.
	f := &Feed{jobs: make(chan *Job, 64), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer close(f.jobs)
		emit := func(j *Job) bool {
			select {
			case f.jobs <- j:
				return true
			case <-f.stop:
				return false
			}
		}
		for _, file := range FeedOrder(dir, epochs) {
			fh, err := os.Open(file.Path)
			if err != nil {
				if os.IsNotExist(err) {
					continue
				}
				f.Err = err
				return
			}
			sc := bufio.NewScanner(fh)
			sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
			var lines []string
			var nbytes int64
			flush := func() bool {
				if len(lines) == 0 {
					return true
				}
				body, err := json.Marshal(map[string]any{"table": file.Table, "rows": lines})
				if err != nil {
					f.Err = err
					return false
				}
				j := &Job{Op: Op{Class: ClassAppend}, Path: "/api/append", Body: body,
					Rows: len(lines), Bytes: nbytes, Table: file.Table, Lines: lines, Epoch: file.Epoch}
				lines, nbytes = nil, 0
				return emit(j)
			}
			for sc.Scan() {
				lines = append(lines, sc.Text())
				nbytes += int64(len(sc.Bytes())) + 1
				if len(lines) == BatchRows && !flush() {
					fh.Close()
					return
				}
			}
			err = sc.Err()
			fh.Close()
			if err != nil {
				f.Err = err
				return
			}
			if !flush() {
				return
			}
		}
	}()
	return f
}

// Next is the writer's job source; nil once the feed is used up. The one
// writer sends a batch only after the one before is acknowledged, so when
// it takes the first batch of an epoch every earlier epoch is complete.
func (f *Feed) Next() *Job {
	j, ok := <-f.jobs
	if !ok {
		f.UsedUp.Store(true)
		return nil
	}
	f.EpochsDone.Store(int64(j.Epoch))
	return j
}

// Close stops the encoder and waits for it.
func (f *Feed) Close() {
	f.once.Do(func() { close(f.stop) })
	<-f.done
}
