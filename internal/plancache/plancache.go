// Package plancache is a sharded LRU cache of reusable FFT plans keyed
// by transform kind and size. A long-lived service amortizes plan
// construction (twiddle-factor tables) across many transforms — the
// same setup-cost amortization that the paper's step accounting applies
// to communication schedules — so a cache hit must be much cheaper than
// building a fresh plan (BenchmarkPlanCacheHit proves it).
//
// The cache is safe for concurrent use: keys hash to one of several
// independently locked shards, so parallel Get/Put churn on different
// sizes rarely contends on one mutex. Capacity is enforced per shard
// with least-recently-used eviction.
//
//fftlint:hot
package plancache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/fft"
)

// Kind names a plan family. The cache stores values opaquely, so one
// cache can hold every plan type the service serves.
type Kind string

// The plan kinds the service caches.
const (
	KindComplex Kind = "complex" // *fft.Plan
	KindReal    Kind = "real"    // *fft.RealPlan
	KindAny     Kind = "any"     // *fft.AnyPlan
	KindPlan2D  Kind = "plan2d"  // *fft.Plan2D, N packed as rows<<32|cols
)

// Key identifies one cached plan: its family and transform length.
type Key struct {
	Kind Kind
	N    int
}

// Stats is a snapshot of the cache counters. Shards carries per-shard
// occupancy and eviction breakdowns (index = shard number): a single
// hot shard evicting while the rest sit empty means the key
// distribution — not the capacity — is the problem, which the global
// counters alone cannot distinguish.
type Stats struct {
	Hits      int64        `json:"hits"`
	Misses    int64        `json:"misses"`
	Evictions int64        `json:"evictions"`
	Size      int          `json:"size"`
	Capacity  int          `json:"capacity"`
	Shards    []ShardStats `json:"shards,omitempty"`
}

// ShardStats is one shard's occupancy and eviction count.
type ShardStats struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Evictions int64 `json:"evictions"`
}

// entry is one cached plan inside a shard's LRU list.
type entry struct {
	key Key
	val any
}

// shard is one independently locked LRU segment.
type shard struct {
	mu        sync.Mutex
	cap       int
	items     map[Key]*list.Element
	order     *list.List // front = most recently used
	evictions int64      // guarded by mu; the shard's share of Stats.Evictions
}

// Cache is a sharded LRU plan cache. The zero value is not usable; use
// New.
type Cache struct {
	shards    []*shard
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// numShards is a small power of two: enough to spread lock contention
// across cores without fragmenting tiny capacities.
const numShards = 8

// New creates a cache holding at most capacity plans in total
// (capacity < numShards is rounded up so every shard holds at least
// one plan).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	perShard := (capacity + numShards - 1) / numShards
	c := &Cache{shards: make([]*shard, numShards)}
	for i := range c.shards {
		c.shards[i] = &shard{
			cap: perShard,
			//fftlint:ignore hotalloc cache construction runs once at process start, not on the serving path
			items: make(map[Key]*list.Element),
			order: list.New(),
		}
	}
	return c
}

// shardFor hashes a key to its shard (FNV-1a over kind and size).
func (c *Cache) shardFor(k Key) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(k.Kind); i++ {
		h ^= uint32(k.Kind[i])
		h *= 16777619
	}
	n := uint32(k.N)
	for i := 0; i < 4; i++ {
		h ^= (n >> (8 * i)) & 0xff
		h *= 16777619
	}
	return c.shards[h&(numShards-1)]
}

// Get returns the cached plan for k, marking it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	s.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*entry).val, true
}

// Put inserts or refreshes the plan for k, evicting the least recently
// used plan of the same shard if the shard is full.
func (c *Cache) Put(k Key, v any) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		el.Value.(*entry).val = v
		s.order.MoveToFront(el)
		return
	}
	s.items[k] = s.order.PushFront(&entry{key: k, val: v})
	if s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*entry).key)
		s.evictions++
		c.evictions.Add(1)
	}
}

// GetOrCreate returns the cached plan for k, building and inserting it
// on a miss. build runs outside the shard lock, so concurrent misses on
// one key may build duplicate plans — one wins the Put, the extras are
// garbage; plans are immutable so either copy is correct.
func (c *Cache) GetOrCreate(k Key, build func() (any, error)) (any, error) {
	if v, ok := c.Get(k); ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	c.Put(k, v)
	return v, nil
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the total plan capacity across shards.
func (c *Cache) Capacity() int {
	total := 0
	for _, s := range c.shards {
		total += s.cap
	}
	return total
}

// Stats snapshots the hit/miss/eviction counters, current size and the
// per-shard breakdown.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Shards:    c.ShardStats(),
	}
	for _, sh := range st.Shards {
		st.Size += sh.Size
		st.Capacity += sh.Capacity
	}
	return st
}

// ShardStats snapshots each shard's occupancy and eviction count,
// indexed by shard number.
func (c *Cache) ShardStats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = ShardStats{Size: s.order.Len(), Capacity: s.cap, Evictions: s.evictions}
		s.mu.Unlock()
	}
	return out
}

// Keys returns every cached key in no particular order (for tests).
func (c *Cache) Keys() []Key {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.order.Len()
		s.mu.Unlock()
	}
	out := make([]Key, 0, total)
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.order.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*entry).key)
		}
		s.mu.Unlock()
	}
	return out
}

// ComplexPlan returns the cached radix-2 plan for length n, building it
// on a miss.
func (c *Cache) ComplexPlan(n int) (*fft.Plan, error) {
	v, err := c.GetOrCreate(Key{Kind: KindComplex, N: n}, func() (any, error) {
		return fft.NewPlan(n)
	})
	if err != nil {
		return nil, err
	}
	return v.(*fft.Plan), nil
}

// RealPlan returns the cached real-input plan for length n, building it
// on a miss.
func (c *Cache) RealPlan(n int) (*fft.RealPlan, error) {
	v, err := c.GetOrCreate(Key{Kind: KindReal, N: n}, func() (any, error) {
		return fft.NewRealPlan(n)
	})
	if err != nil {
		return nil, err
	}
	return v.(*fft.RealPlan), nil
}

// AnyPlan returns the cached arbitrary-length plan for n, building it
// on a miss. AnyPlan accepts any n >= 1 (Bluestein's algorithm embeds
// the transform in a power-of-two convolution), so this is the serving
// path for sizes ComplexPlan rejects.
func (c *Cache) AnyPlan(n int) (*fft.AnyPlan, error) {
	v, err := c.GetOrCreate(Key{Kind: KindAny, N: n}, func() (any, error) {
		return fft.NewAnyPlan(n)
	})
	if err != nil {
		return nil, err
	}
	return v.(*fft.AnyPlan), nil
}

// Plan2D returns the cached 2D plan for a rows x cols transform,
// building it on a miss. The two sides pack into the key's single N
// (rows in the high 32 bits), which bounds each side at 2^31-1 —
// far beyond MaxTransformLen's reach for the product.
func (c *Cache) Plan2D(rows, cols int) (*fft.Plan2D, error) {
	v, err := c.GetOrCreate(Key{Kind: KindPlan2D, N: rows<<32 | cols}, func() (any, error) {
		return fft.NewPlan2D(rows, cols)
	})
	if err != nil {
		return nil, err
	}
	return v.(*fft.Plan2D), nil
}

// Source adapts the cache to the fft.Source plan-reuse hook, so any
// plan consumer (parfft, the service's transform workers) can draw
// complex plans from the shared cache.
func (c *Cache) Source() fft.Source {
	return fft.SourceFunc(c.ComplexPlan)
}
