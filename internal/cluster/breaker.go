package cluster

import (
	"sync"
	"time"
)

// breaker is a per-peer circuit breaker. After threshold consecutive
// failures the breaker opens: the client skips the peer in its
// preference lists, so a struggling node stops absorbing hedges it will
// only fail. After cooldown the breaker goes half-open — one probe
// request is allowed through; its outcome closes or re-opens the
// circuit. Heartbeat recovery (Registry re-adding a peer) also resets
// the breaker via reset.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injected by tests

	mu       sync.Mutex
	fails    int
	openedAt time.Time
	open     bool
	probing  bool // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// allow reports whether a request may be sent to the peer. While open
// and cooling down it refuses; after cooldown it admits exactly one
// half-open probe at a time.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.now().Sub(b.openedAt) < b.cooldown {
		return false
	}
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// record feeds one request outcome back into the breaker.
func (b *breaker) record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.fails = 0
		b.open = false
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.open = true
		b.openedAt = b.now()
	}
}

// release ends a request that was canceled before it said anything
// about the peer: it frees the half-open probe slot and records no
// outcome.
func (b *breaker) release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// reset closes the breaker (peer recovered via heartbeat).
func (b *breaker) reset() {
	b.mu.Lock()
	b.fails = 0
	b.open = false
	b.probing = false
	b.mu.Unlock()
}

// state reports the breaker's condition for status output.
func (b *breaker) state() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case !b.open:
		return "closed"
	case b.now().Sub(b.openedAt) < b.cooldown:
		return "open"
	default:
		return "half-open"
	}
}
