package netsim

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/obs"
	"repro/internal/permute"
	"repro/internal/topology"
)

// KAryNCube is a simulated SIMD machine on a k-ary n-cube (an
// n-dimensional torus with k nodes per ring) — the network family of
// Dally's analysis that the paper's §I discusses. Radix-2 degenerates to
// the hypercube and dims-2 to the 2D torus, so this machine interpolates
// between the paper's two point-to-point extremes.
type KAryNCube[T any] struct {
	topo *topology.KAryNCube
	cfg  Config
	vals []T
	// radixBits is log2(Radix) when the radix is a power of two
	// (required by ExchangeCompute); -1 otherwise.
	radixBits int
	stats     Stats
	maxStep   int

	// Reusable scratch (a machine is single-goroutine by contract):
	// exOld backs ExchangeCompute's snapshot; the r* slabs back Route.
	exOld []T
	rq    []pktQueue[karyPacket[T]] // node*numPorts + port
	rout  []T
	rarr  []karyArrival[T]
}

// NewKAryNCube creates a radix^dims machine.
func NewKAryNCube[T any](radix, dims int, cfg Config) (*KAryNCube[T], error) {
	if radix < 2 || dims < 1 {
		return nil, fmt.Errorf("netsim: invalid k-ary n-cube shape %d^%d", radix, dims)
	}
	t := topology.NewKAryNCube(radix, dims)
	rb := -1
	if bits.IsPow2(radix) {
		rb = bits.Log2(radix)
	}
	return &KAryNCube[T]{
		topo:      t,
		cfg:       cfg,
		vals:      make([]T, t.Nodes()),
		radixBits: rb,
		maxStep:   100 * t.Nodes(),
		exOld:     make([]T, t.Nodes()),
	}, nil
}

// Name implements Machine.
func (k *KAryNCube[T]) Name() string { return k.topo.Name() }

// Nodes implements Machine.
func (k *KAryNCube[T]) Nodes() int { return k.topo.Nodes() }

// Values implements Machine.
func (k *KAryNCube[T]) Values() []T { return k.vals }

// Stats implements Machine.
func (k *KAryNCube[T]) Stats() Stats { return k.stats }

// ResetStats implements Machine.
func (k *KAryNCube[T]) ResetStats() { k.stats = Stats{} }

// Topology exposes the underlying static topology.
func (k *KAryNCube[T]) Topology() *topology.KAryNCube { return k.topo }

// ExchangeCompute implements Machine. Address bit `bit` lies inside
// base-radix digit bit/log2(radix); the paired nodes sit in one ring at
// distance min(2^t, radix-2^t) (with wraparound), and the exchange
// streams simultaneously in both directions, costing exactly that ring
// distance in steps.
func (k *KAryNCube[T]) ExchangeCompute(bit int, f func(self, partner T, node int) T) error {
	if k.radixBits < 0 {
		return fmt.Errorf("netsim: k-ary n-cube radix %d is not a power of two; bitwise exchange undefined", k.topo.Radix)
	}
	total := k.radixBits * k.topo.Dims
	if bit < 0 || bit >= total {
		return fmt.Errorf("netsim: exchange bit %d out of range [0,%d)", bit, total)
	}
	t := bit % k.radixBits
	d := 1 << uint(t)
	if w := k.topo.Radix - d; w < d {
		d = w
	}
	sp := k.cfg.Obs.StartUnder("exchange").SetCat(obs.CatNetsim)
	exchangeCompute(k.vals, k.exOld, k.cfg.workers(), func(i int) int {
		return bits.FlipBit(i, bit)
	}, f)
	k.stats.Steps += d
	k.stats.ComputeSteps++
	k.stats.LinkTraversals += d * k.Nodes()
	k.stats.Words += k.Nodes()
	if sp != nil {
		sp.SetDetail(fmt.Sprintf("bit %d (ring distance %d)", bit, d)).AddSteps(d)
	}
	sp.End()
	return nil
}

// karyPacket is an in-flight packet during Route.
type karyPacket[T any] struct {
	dst int
	val T
}

// karyArrival is a packet crossing a link within the current step.
type karyArrival[T any] struct {
	node int
	pkt  karyPacket[T]
}

// Route implements Machine with queued dimension-order store-and-forward
// routing: packets correct digits in ascending dimension order, taking
// the shorter way around each ring; each directed ring link moves one
// packet per step.
func (k *KAryNCube[T]) Route(p permute.Permutation) (int, error) {
	if err := validateRoute(k.Name(), k.Nodes(), p); err != nil {
		return 0, err
	}
	n := k.Nodes()
	dims := k.topo.Dims
	radix := k.topo.Radix
	sp := k.cfg.Obs.StartUnder("route").SetCat(obs.CatNetsim)
	defer sp.End()
	// Ports: 2 per dimension (+ and - ring directions).
	numPorts := 2 * dims

	// nextPort picks the outgoing port for a packet at cur.
	nextPort := func(cur, dst int) int {
		for d := 0; d < dims; d++ {
			cd := bits.Digit(cur, radix, d)
			dd := bits.Digit(dst, radix, d)
			if cd == dd {
				continue
			}
			fwd := ((dd-cd)%radix + radix) % radix
			if fwd <= radix-fwd {
				return 2 * d // + direction
			}
			return 2*d + 1 // - direction
		}
		return -1
	}

	neighbor := func(cur, port int) int {
		d := port / 2
		v := bits.Digit(cur, radix, d)
		if port%2 == 0 {
			v = (v + 1) % radix
		} else {
			v = (v - 1 + radix) % radix
		}
		return bits.SetDigit(cur, radix, d, v)
	}

	// Reuse the routing slabs across calls; every destination receives
	// exactly one packet, so out needs no clearing between permutations.
	if k.rq == nil {
		k.rq = make([]pktQueue[karyPacket[T]], n*numPorts)
		k.rout = make([]T, n)
	}
	for i := range k.rq {
		k.rq[i].reset()
	}
	queues := k.rq
	out := k.rout
	remaining := 0
	for i, dst := range p {
		if dst == i {
			out[i] = k.vals[i]
			continue
		}
		port := nextPort(i, dst)
		queues[i*numPorts+port].push(karyPacket[T]{dst: dst, val: k.vals[i]})
		remaining++
	}
	k.stats.Words += remaining

	steps := 0
	arrivals := k.rarr
	for remaining > 0 {
		if steps > k.maxStep {
			return steps, fmt.Errorf("netsim: k-ary n-cube routing exceeded %d steps", k.maxStep)
		}
		arrivals = arrivals[:0]
		moved := false
		for node := 0; node < n; node++ {
			for port := 0; port < numPorts; port++ {
				q := &queues[node*numPorts+port]
				if q.len() == 0 {
					continue
				}
				arrivals = append(arrivals, karyArrival[T]{node: neighbor(node, port), pkt: q.pop()})
				k.stats.LinkTraversals++
				moved = true
			}
		}
		if !moved {
			return steps, fmt.Errorf("netsim: k-ary n-cube routing deadlocked with %d packets left", remaining)
		}
		for _, a := range arrivals {
			if a.node == a.pkt.dst {
				out[a.node] = a.pkt.val
				remaining--
				continue
			}
			port := nextPort(a.node, a.pkt.dst)
			q := &queues[a.node*numPorts+port]
			q.push(a.pkt)
			if l := q.len(); l > k.stats.MaxQueue {
				k.stats.MaxQueue = l
			}
		}
		steps++
	}
	k.rarr = arrivals // keep the grown capacity for the next call
	copy(k.vals, out)
	k.stats.Steps += steps
	sp.SetDetail("dimension-order torus").AddSteps(steps)
	return steps, nil
}
