package cache

import (
	"context"
	"sync"
)

// Flight runs one load per key at a time. The zero value is ready to use.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

type call[V any] struct {
	done    chan struct{}
	val     V
	ok      bool // the load succeeded and val holds its value
	callers int  // the leader plus its waiters; under Flight.mu
}

// Do returns load's value for key. The first caller for a key, the leader,
// runs load; callers arriving while it runs wait for it and, when it
// succeeds, get its value with shared set. A failed load is handed to
// nobody but the leader: each waiter retries, joining a newer load or
// leading one itself, so one caller's failure — most often its own context
// ending — never fails another. A waiter whose ctx ends first returns
// ctx.Err(). The key is free again once the load returns: Flight dedupes
// concurrent loads, it stores nothing.
func (f *Flight[V]) Do(ctx context.Context, key string, load func() (V, error)) (v V, shared bool, err error) {
	for {
		f.mu.Lock()
		if f.calls == nil {
			f.calls = make(map[string]*call[V])
		}
		c, ok := f.calls[key]
		if !ok {
			c = &call[V]{done: make(chan struct{}), callers: 1}
			f.calls[key] = c
			f.mu.Unlock()
			defer f.release(key, c) // also when load panics
			v, err = load()
			c.val, c.ok = v, err == nil
			return v, false, err
		}
		c.callers++
		f.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			f.mu.Lock()
			c.callers--
			f.mu.Unlock()
			return v, false, ctx.Err()
		}
		if c.ok {
			return c.val, true, nil
		}
	}
}

// release frees key for the next load and wakes c's waiters.
func (f *Flight[V]) release(key string, c *call[V]) {
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.done)
}

// Pending reports how many callers are inside Do for key: the leader of
// the load in flight plus its waiters, 0 when no load for key runs.
func (f *Flight[V]) Pending(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok {
		return c.callers
	}
	return 0
}
