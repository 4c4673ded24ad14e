package netsim

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/obs"
	"repro/internal/permute"
	"repro/internal/topology"
)

// Hypercube is a simulated SIMD machine on a binary hypercube of
// N = 2^dims nodes, one register per node.
type Hypercube[T any] struct {
	topo    *topology.Hypercube
	cfg     Config
	vals    []T
	stats   Stats
	maxStep int
	// failed marks links disabled by FailLink (nil = fully healthy).
	failed map[cubeLink]bool

	// Reusable scratch (a machine is single-goroutine by contract):
	// exOld backs ExchangeCompute's snapshot, the r* slabs back Route,
	// and the sw* slabs back swapAddressBits' transit schedule.
	exOld   []T
	rq      []pktQueue[cubePacket[T]] // node*dims + dim
	rout    []T
	rarr    []cubeArrival[T]
	swapBuf []T
	transit []T
	hasTr   []bool
}

// NewHypercube creates a hypercube machine with 2^dims nodes.
func NewHypercube[T any](dims int, cfg Config) (*Hypercube[T], error) {
	if dims < 0 {
		return nil, fmt.Errorf("netsim: hypercube dims %d < 0", dims)
	}
	t := topology.NewHypercube(dims)
	return &Hypercube[T]{
		topo:    t,
		cfg:     cfg,
		vals:    make([]T, t.Nodes()),
		maxStep: 100 * (dims + 1) * t.Nodes(),
		exOld:   make([]T, t.Nodes()),
	}, nil
}

// Name implements Machine.
func (h *Hypercube[T]) Name() string { return h.topo.Name() }

// Nodes implements Machine.
func (h *Hypercube[T]) Nodes() int { return h.topo.Nodes() }

// Values implements Machine.
func (h *Hypercube[T]) Values() []T { return h.vals }

// Stats implements Machine.
func (h *Hypercube[T]) Stats() Stats { return h.stats }

// ResetStats implements Machine.
func (h *Hypercube[T]) ResetStats() { h.stats = Stats{} }

// Topology exposes the underlying static topology.
func (h *Hypercube[T]) Topology() *topology.Hypercube { return h.topo }

// ExchangeCompute implements Machine: every node exchanges registers
// with its dimension-`bit` neighbour in exactly one data-transfer step —
// the hypercube "implements all Butterfly permutations without
// conflict" (§III.A).
func (h *Hypercube[T]) ExchangeCompute(bit int, f func(self, partner T, node int) T) error {
	if bit < 0 || bit >= h.topo.Dims {
		return fmt.Errorf("netsim: hypercube exchange bit %d out of range [0,%d)", bit, h.topo.Dims)
	}
	for link := range h.failed {
		if link.dim == bit {
			return fmt.Errorf("netsim: exchange on dimension %d blocked by failed link at node %d", bit, link.low)
		}
	}
	sp := h.cfg.Obs.StartUnder("exchange").SetCat(obs.CatNetsim)
	exchangeCompute(h.vals, h.exOld, h.cfg.workers(), func(i int) int {
		return bits.FlipBit(i, bit)
	}, f)
	h.stats.Steps++
	h.stats.ComputeSteps++
	h.stats.LinkTraversals += h.Nodes()
	h.stats.Words += h.Nodes()
	if sp != nil {
		sp.SetDetail(fmt.Sprintf("bit %d", bit)).AddSteps(1)
	}
	sp.End()
	return nil
}

// cubePacket is an in-flight packet during Route.
type cubePacket[T any] struct {
	dst int
	val T
}

// cubeArrival is a packet crossing a link within the current step.
type cubeArrival[T any] struct {
	node int
	pkt  cubePacket[T]
}

// Route implements Machine using queued e-cube (ascending dimension-
// order) store-and-forward routing: in each step every node forwards at
// most one packet per dimension. Arbitrary permutations can congest
// intermediate nodes (Valiant's motivation for randomized routing), so
// the measured makespan may exceed the distance bound; the structured
// schedules used by the FFT avoid this via RouteBitReversal.
func (h *Hypercube[T]) Route(p permute.Permutation) (int, error) {
	if err := validateRoute(h.Name(), h.Nodes(), p); err != nil {
		return 0, err
	}
	n := h.Nodes()
	dims := h.topo.Dims
	sp := h.cfg.Obs.StartUnder("route").SetCat(obs.CatNetsim)
	defer sp.End()

	// nextDim returns the lowest dimension in which cur and dst differ,
	// or -1 when cur == dst.
	nextDim := func(cur, dst int) int {
		diff := cur ^ dst
		for d := 0; d < dims; d++ {
			if diff>>uint(d)&1 == 1 {
				return d
			}
		}
		return -1
	}

	// Reuse the routing slabs across calls; every destination receives
	// exactly one packet, so out needs no clearing between permutations.
	if h.rq == nil {
		h.rq = make([]pktQueue[cubePacket[T]], n*dims)
		h.rout = make([]T, n)
	}
	for i := range h.rq {
		h.rq[i].reset()
	}
	queues := h.rq
	out := h.rout
	remaining := 0
	for i, dst := range p {
		if dst == i {
			out[i] = h.vals[i]
			continue
		}
		d := nextDim(i, dst)
		queues[i*dims+d].push(cubePacket[T]{dst: dst, val: h.vals[i]})
		remaining++
	}
	h.stats.Words += remaining

	steps := 0
	arrivals := h.rarr
	for remaining > 0 {
		if steps > h.maxStep {
			return steps, fmt.Errorf("netsim: hypercube routing exceeded %d steps", h.maxStep)
		}
		arrivals = arrivals[:0]
		moved := false
		for node := 0; node < n; node++ {
			for d := 0; d < dims; d++ {
				q := &queues[node*dims+d]
				if q.len() == 0 {
					continue
				}
				arrivals = append(arrivals, cubeArrival[T]{node: bits.FlipBit(node, d), pkt: q.pop()})
				h.stats.LinkTraversals++
				moved = true
			}
		}
		if !moved {
			return steps, fmt.Errorf("netsim: hypercube routing deadlocked with %d packets left", remaining)
		}
		for _, a := range arrivals {
			if a.node == a.pkt.dst {
				out[a.node] = a.pkt.val
				remaining--
				continue
			}
			d := nextDim(a.node, a.pkt.dst)
			q := &queues[a.node*dims+d]
			q.push(a.pkt)
			if l := q.len(); l > h.stats.MaxQueue {
				h.stats.MaxQueue = l
			}
		}
		steps++
	}
	h.rarr = arrivals // keep the grown capacity for the next call
	copy(h.vals, out)
	h.stats.Steps += steps
	sp.SetDetail("greedy e-cube").AddSteps(steps)
	return steps, nil
}

// RouteBitReversal performs the bit-reversal permutation with the
// conflict-free schedule the paper's 2*log(N) FFT accounting assumes:
// the reversal factors into floor(dims/2) transpositions of address-bit
// pairs (i, dims-1-i), and each transposition is realized in two
// data-transfer steps. Every node holds at most one transit packet and
// every directed link carries at most one packet per step, so the total
// is 2*floor(dims/2) <= log N steps — matching the worst-case distance
// bound of §III.A.
func (h *Hypercube[T]) RouteBitReversal() (int, error) {
	dims := h.topo.Dims
	bp := make([]int, dims)
	for i := range bp {
		bp[i] = dims - 1 - i
	}
	return h.RouteBitPermutation(bp)
}

// RouteBitPermutation routes the register permutation induced by a
// permutation of address bits: the value at node a moves to the node
// whose bit i equals bit bp^-1(i) of a — i.e. address bit i is carried
// to position bp[i]. Such bit-permute permutations (a subclass of the
// BPC class) cover the FFT bit reversal, matrix transposition (swapping
// the row and column bit halves) and the perfect shuffle.
//
// The permutation factors into transpositions of address-bit pairs;
// each transposition costs two conflict-free data-transfer steps (one
// transit buffer per node, each directed link used once per step), so
// the total is at most 2*(dims-1) steps and exactly dims steps for the
// bit reversal.
func (h *Hypercube[T]) RouteBitPermutation(bp []int) (int, error) {
	dims := h.topo.Dims
	if len(bp) != dims {
		return 0, fmt.Errorf("netsim: bit permutation has %d entries, want %d", len(bp), dims)
	}
	if err := permute.Permutation(bp).Validate(); err != nil {
		return 0, fmt.Errorf("netsim: %w", err)
	}
	// Words: the induced register permutation relocates exactly the
	// registers whose address changes under the bit rearrangement — the
	// same count Route reports for the equivalent permutation, keeping
	// Words engine-invariant on the conflict-free fast path.
	moved := 0
	for a := 0; a < h.Nodes(); a++ {
		dest := 0
		for i := 0; i < dims; i++ {
			dest |= ((a >> uint(i)) & 1) << uint(bp[i])
		}
		if dest != a {
			moved++
		}
	}
	h.stats.Words += moved
	// Factor bp into transpositions cycle by cycle. Applying swaps in
	// this order realizes the full bit permutation.
	cur := append([]int(nil), bp...)
	pos := make([]int, dims) // pos[bit value] = current position
	for i, v := range cur {
		pos[v] = i
	}
	steps := 0
	for target := 0; target < dims; target++ {
		if cur[target] == target {
			continue
		}
		// Swap position target with the position currently destined to
		// receive bit value target; repeating left to right settles one
		// position per transposition.
		p := pos[target]
		if err := h.swapAddressBits(target, p); err != nil {
			return steps, err
		}
		steps += 2
		// Update bookkeeping: values at positions target and p swap.
		cur[target], cur[p] = cur[p], cur[target]
		pos[cur[target]] = target
		pos[cur[p]] = p
	}
	h.stats.Steps += steps
	return steps, nil
}

// swapAddressBits exchanges address bits lo and hi of every register's
// location in two conflict-free steps (the Slepian-style transit
// schedule described at RouteBitPermutation), reported as one
// "bit-swap" span.
func (h *Hypercube[T]) swapAddressBits(lo, hi int) error {
	if lo == hi {
		return nil
	}
	sp := h.cfg.Obs.StartUnder("bit-swap").SetCat(obs.CatNetsim)
	defer sp.End()
	n := h.Nodes()
	// Step 1: movers (bit lo != bit hi) send their register across
	// dimension lo; each receiver is a stayer and buffers one packet.
	// The transit schedule reuses the machine's sw* slabs: log N-step
	// bit-permutation routes would otherwise allocate three slices per
	// transposition.
	if h.transit == nil {
		h.transit = make([]T, n)
		h.hasTr = make([]bool, n)
		h.swapBuf = make([]T, n)
	}
	transit, hasTransit := h.transit, h.hasTr
	clear(hasTransit)
	for u := 0; u < n; u++ {
		if bits.Bit(u, lo) != bits.Bit(u, hi) {
			v := bits.FlipBit(u, lo)
			if hasTransit[v] {
				return fmt.Errorf("netsim: bit-swap transit collision at node %d", v)
			}
			transit[v] = h.vals[u]
			hasTransit[v] = true
			h.stats.LinkTraversals++
		}
	}
	// Step 2: buffered packets cross dimension hi into the register
	// vacated by the symmetric mover.
	next := h.swapBuf
	copy(next, h.vals)
	for v := 0; v < n; v++ {
		if hasTransit[v] {
			w := bits.FlipBit(v, hi)
			next[w] = transit[v]
			h.stats.LinkTraversals++
		}
	}
	h.vals, h.swapBuf = next, h.vals
	if sp != nil {
		sp.SetDetail(fmt.Sprintf("bits %d<->%d", lo, hi)).AddSteps(2)
	}
	return nil
}
