package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark drives its own two loops rather than load.Run, because
// load.Run measures something else: it starts an open-loop request's
// clock only once an in-flight slot is free, so a stall is never charged
// to the requests queued behind it; it JSON-encodes each payload inside
// the timed loop; it leaves failures out of the percentiles; and its
// HTTPTarget discards the answer unread. The loops below time from the
// due time and count failures as misses; their caller sends bodies
// encoded before the clock starts and keeps every 8th answer to check.

// missed is the latency recorded for a request that failed: it sorts
// after every real latency, so a failure counts as missing any limit.
const missed = time.Duration(math.MaxInt64)

// sendFunc issues trace request i on client c (0 <= c < clients) and
// reports whether it got a usable answer. It returns only once the
// whole response has been read.
type sendFunc func(ctx context.Context, c, i int) bool

// loopResult is one timed window as the generator saw it. lat and late
// are indexed by trace position; only the first issued entries are set.
type loopResult struct {
	issued  int
	lat     []time.Duration // from due time (open loop) or send time (closed loop); missed on failure
	late    []time.Duration // open loop: how late the dispatcher released each request
	elapsed time.Duration   // from the window's start to the last completion
}

// openLoop releases request i at due[i] after the start to whichever of
// the clients is free, so at most clients requests are in flight. Each
// latency runs from the request's due time, not from when a client took
// it: a stall that holds both clients is charged to every request that
// fell due behind it.
func openLoop(ctx context.Context, due []time.Duration, clients int, send sendFunc) loopResult {
	res := loopResult{lat: make([]time.Duration, len(due)), late: make([]time.Duration, len(due))}
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range jobs {
				ok := send(ctx, c, i)
				res.lat[i] = time.Since(start) - due[i]
				if !ok {
					res.lat[i] = missed
				}
			}
		}(c)
	}

	timer := time.NewTimer(0)
	<-timer.C
	// freed is when the dispatcher last got a request accepted. Time spent
	// blocked waiting for a free client is the server's queueing (already
	// in the latency), not generator lateness.
	freed := time.Duration(0)
dispatch:
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		res.late[i] = time.Since(start) - max(d, freed)
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
		freed = time.Since(start)
		res.issued++
	}
	close(jobs)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// closedLoop runs clients workers that each send their next request as
// soon as the previous one returns, until the window closes or the n
// prepared requests run out. Latency runs from each request's send.
func closedLoop(ctx context.Context, n int, window time.Duration, clients int, send sendFunc) loopResult {
	res := loopResult{lat: make([]time.Duration, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < window {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				ok := send(ctx, c, i)
				res.lat[i] = time.Since(t0)
				if !ok {
					res.lat[i] = missed
				}
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.issued = min(int(next.Load()), n)
	return res
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), xs...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
