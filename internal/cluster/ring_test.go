package cluster

import (
	"fmt"
	"testing"
	"time"
)

func TestRingDeterministicAcrossNodes(t *testing.T) {
	// Two nodes given the same member set (in different orders) must
	// agree on every key's owner — routing correctness depends on it.
	a := NewRing(0)
	b := NewRing(0)
	a.SetMembers([]string{"n0:9000", "n1:9000", "n2:9000"})
	b.SetMembers([]string{"n2:9000", "n0:9000", "n1:9000"})
	for i := 0; i < 1000; i++ {
		h := ShapeKey{N: 1 << (uint(i)%12 + 2), Inverse: i%2 == 0}.Hash() + uint64(i)
		if got, want := a.Lookup(h), b.Lookup(h); got != want {
			t.Fatalf("key %d: ring A says %s, ring B says %s", i, got, want)
		}
	}
}

func TestRingLookupNDistinctOrdered(t *testing.T) {
	r := NewRing(0)
	members := []string{"a", "b", "c", "d"}
	r.SetMembers(members)
	for i := 0; i < 200; i++ {
		h := fnv64(fmt.Sprintf("key-%d", i))
		prefs := r.LookupN(h, 3)
		if len(prefs) != 3 {
			t.Fatalf("key %d: got %d prefs, want 3", i, len(prefs))
		}
		seen := map[string]bool{}
		for _, p := range prefs {
			if seen[p] {
				t.Fatalf("key %d: duplicate member %s in %v", i, p, prefs)
			}
			seen[p] = true
		}
		if prefs[0] != r.Lookup(h) {
			t.Fatalf("key %d: prefs[0] = %s, Lookup = %s", i, prefs[0], r.Lookup(h))
		}
	}
	// Asking for more members than exist returns all of them.
	if got := r.LookupN(1, 10); len(got) != len(members) {
		t.Fatalf("LookupN(10) on 4 members: got %d", len(got))
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(0)
	r.SetMembers([]string{"a", "b", "c"})
	counts := map[string]int{}
	const keys = 30000
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fnv64(fmt.Sprintf("key-%d", i)))]++
	}
	for m, c := range counts {
		frac := float64(c) / keys
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("member %s owns %.1f%% of the keyspace; vnode spread is broken", m, 100*frac)
		}
	}
}

func TestRingMembershipChangeMovesFewKeys(t *testing.T) {
	// Consistent hashing's whole point: dropping one of four members
	// must remap only that member's share (~25%), not reshuffle
	// everything. A modulo-style scheme would move ~75%.
	r := NewRing(0)
	r.SetMembers([]string{"a", "b", "c", "d"})
	const keys = 10000
	before := make([]string, keys)
	for i := range before {
		before[i] = r.Lookup(fnv64(fmt.Sprintf("key-%d", i)))
	}
	r.SetMembers([]string{"a", "b", "c"})
	moved := 0
	for i := range before {
		after := r.Lookup(fnv64(fmt.Sprintf("key-%d", i)))
		if after != before[i] {
			moved++
			if before[i] != "d" {
				t.Fatalf("key %d moved from live member %s to %s", i, before[i], after)
			}
		}
	}
	frac := float64(moved) / keys
	if frac > 0.45 {
		t.Errorf("membership change moved %.1f%% of keys; want ~25%%", 100*frac)
	}
}

func TestRingEmptyAndLookupNInto(t *testing.T) {
	r := NewRing(0)
	if got := r.Lookup(42); got != "" {
		t.Fatalf("empty ring Lookup = %q", got)
	}
	if got := r.LookupN(42, 3); len(got) != 0 {
		t.Fatalf("empty ring LookupN = %v", got)
	}
	r.SetMembers([]string{"a", "b"})
	buf := make([]string, 0, 4)
	got := r.LookupNInto(buf, 42, 2)
	if len(got) != 2 {
		t.Fatalf("LookupNInto = %v", got)
	}
}

func TestShapeKeyHashSeparates(t *testing.T) {
	seen := map[uint64]ShapeKey{}
	for _, k := range []ShapeKey{
		{N: 1024}, {N: 2048}, {N: 1024, Inverse: true},
		{N: 1024, NoReorder: true}, {N: 1024, Real: true}, {N: 4096},
	} {
		h := k.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("shapes %v and %v collide at %x", prev, k, h)
		}
		seen[h] = k
	}
}

// TestBreakerReleasedProbeFreesSlot — a half-open probe whose request
// was canceled frees the probe slot without re-opening or closing the
// circuit, so the next request can probe.
func TestBreakerReleasedProbeFreesSlot(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(1, time.Second, func() time.Time { return now })
	b.record(false)
	now = now.Add(time.Second)
	if !b.allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	b.release()
	if got := b.state(); got != "half-open" {
		t.Fatalf("state after a released probe = %s, want half-open", got)
	}
	if !b.allow() {
		t.Fatal("released probe slot was not freed for the next request")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := newBreaker(3, time.Second, clock)

	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.record(false)
	}
	if b.allow() {
		t.Fatal("breaker stayed closed after threshold failures")
	}
	if got := b.state(); got != "open" {
		t.Fatalf("state = %s, want open", got)
	}

	// After cooldown exactly one half-open probe is admitted.
	now = now.Add(time.Second)
	if got := b.state(); got != "half-open" {
		t.Fatalf("state = %s, want half-open", got)
	}
	if !b.allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.record(false) // probe failed: re-open
	if b.allow() {
		t.Fatal("re-opened breaker admitted a request inside cooldown")
	}

	now = now.Add(time.Second)
	if !b.allow() {
		t.Fatal("second half-open probe refused")
	}
	b.record(true) // probe succeeded: close
	if !b.allow() || b.state() != "closed" {
		t.Fatal("breaker did not close after successful probe")
	}

	// reset closes an open breaker (heartbeat recovery).
	b.record(false)
	b.record(false)
	b.record(false)
	if b.allow() {
		t.Fatal("breaker should be open again")
	}
	b.reset()
	if !b.allow() {
		t.Fatal("reset breaker refused a request")
	}
}

func TestRegistryObserveMembership(t *testing.T) {
	reg := NewRegistry("self:1", []string{"p1:1", "p2:1"}, RegistryConfig{FailThreshold: 2})
	if got := reg.Ring().Size(); got != 3 {
		t.Fatalf("initial ring size = %d, want 3 (peers start optimistic)", got)
	}

	// Two consecutive failures remove p1 from the ring.
	reg.Observe("p1:1", false, fmt.Errorf("connection refused"))
	if got := reg.Ring().Size(); got != 3 {
		t.Fatalf("ring shrank after one failure (threshold 2): size %d", got)
	}
	reg.Observe("p1:1", false, fmt.Errorf("connection refused"))
	if got := reg.Ring().Size(); got != 2 {
		t.Fatalf("ring size after threshold failures = %d, want 2", got)
	}

	// A draining peer (alive, not ready) leaves the ring too.
	reg.Observe("p2:1", false, nil)
	if got := reg.Ring().Size(); got != 1 {
		t.Fatalf("ring size with drained peer = %d, want 1", got)
	}

	// Recovery re-adds, and the recovery hook fires.
	recovered := ""
	reg.SetOnRecover(func(id string) { recovered = id })
	reg.Observe("p1:1", true, nil)
	if got := reg.Ring().Size(); got != 2 {
		t.Fatalf("ring size after recovery = %d, want 2", got)
	}
	if recovered != "p1:1" {
		t.Fatalf("recovery hook got %q", recovered)
	}

	infos := reg.Peers()
	if len(infos) != 2 || infos[0].ID != "p1:1" || !infos[0].InRing || infos[1].InRing {
		t.Fatalf("peer snapshot wrong: %+v", infos)
	}
}
