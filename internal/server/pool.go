package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrDraining is returned by the pool when the server has begun
// graceful shutdown and no longer accepts new work.
var ErrDraining = errors.New("server: draining, not accepting new work")

// ErrSaturated is returned by the pool when every worker is busy and
// the queue is full. Handlers map it to HTTP 429 with a Retry-After
// header: shedding at the knee keeps saturation visible to load
// generators instead of hiding it behind unbounded queueing delay.
var ErrSaturated = errors.New("server: worker pool saturated")

// panicError wraps a recovered worker panic so handlers can convert it
// into a 500 response instead of letting it kill the daemon.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("worker panic: %v", e.value)
}

// job is one unit of pool work: run fn, deliver nil or a panicError.
type job struct {
	fn   func()
	done chan error
}

// workerPool is a bounded pool: at most `workers` jobs execute at once
// and at most cap(jobs) wait in the queue. Submission is non-blocking:
// when the queue is full the pool rejects with ErrSaturated, providing
// the service's backpressure as an explicit 429 signal rather than
// queueing delay.
type workerPool struct {
	jobs      chan job
	wg        sync.WaitGroup
	mu        sync.RWMutex // guards closed vs. in-flight submits
	closed    bool
	workers   int
	queued    atomic.Int64
	active    atomic.Int64
	submitted atomic.Int64
	rejected  atomic.Int64
}

func newWorkerPool(workers, queue int) *workerPool {
	p := &workerPool{jobs: make(chan job, queue), workers: workers}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		p.queued.Add(-1)
		p.active.Add(1)
		j.done <- runRecovered(j.fn)
		p.active.Add(-1)
	}
}

// runRecovered executes fn, converting a panic into a panicError so one
// bad request cannot take down the worker (and with it the daemon).
func runRecovered(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{value: r, stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// do submits fn and waits for it to finish. It returns ErrDraining once
// the pool is closed, ErrSaturated immediately when every worker is
// busy and the queue is full (no waiting for a slot: saturation is
// surfaced, not absorbed), the context error if the caller gives up
// waiting for a slow job, and a panicError if fn panicked. When do
// returns early on context expiry a queued fn may still run later;
// callers must not touch fn's captures after an error without their own
// synchronization.
func (p *workerPool) do(ctx context.Context, fn func()) error {
	j := job{fn: fn, done: make(chan error, 1)}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrDraining
	}
	// Count the job as queued before a worker can take it (and count it
	// out), so queue_depth never reads below zero.
	p.queued.Add(1)
	select {
	case p.jobs <- j:
		p.submitted.Add(1)
		p.mu.RUnlock()
	default:
		p.queued.Add(-1)
		p.mu.RUnlock()
		p.rejected.Add(1)
		return ErrSaturated
	}
	select {
	case err := <-j.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close stops accepting new jobs, runs everything already queued, and
// waits for all workers to exit — the pool half of graceful drain. Safe
// to call more than once.
func (p *workerPool) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// poolStats is the /metrics view of the pool.
type poolStats struct {
	Workers   int   `json:"workers"`
	Capacity  int   `json:"queue_capacity"`
	Queued    int64 `json:"queue_depth"`
	Active    int64 `json:"active"`
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
}

func (p *workerPool) stats() poolStats {
	return poolStats{
		Workers:   p.workers,
		Capacity:  cap(p.jobs),
		Queued:    p.queued.Load(),
		Active:    p.active.Load(),
		Submitted: p.submitted.Load(),
		Rejected:  p.rejected.Load(),
	}
}
