package netsim

import (
	"fmt"
	"math/rand"

	"repro/internal/bits"
	"repro/internal/obs"
	"repro/internal/permute"
)

// valiantPacket is a packet in two-phase randomized routing.
type valiantPacket[T any] struct {
	mid   int // random intermediate node (phase one target)
	dst   int // final destination
	val   T
	phase int // 0: heading to mid, 1: heading to dst
}

// target returns the packet's current goal node.
func (p *valiantPacket[T]) target() int {
	if p.phase == 0 {
		return p.mid
	}
	return p.dst
}

// RouteValiant delivers the permutation with Valiant's two-phase
// randomized algorithm (the paper's reference [15]): every packet first
// travels to a uniformly random intermediate node, then on to its true
// destination, both legs by greedy ascending-dimension (e-cube) routing.
// Randomization destroys the adversarial congestion patterns that make
// greedy routing of structured permutations slow, delivering any
// permutation in O(log N) steps with high probability — the property
// that makes the hypercube "universal".
//
// The two phases overlap: a packet that reaches its intermediate node
// immediately begins phase two (Valiant's original scheme also needs no
// barrier). Steps are counted until the last packet is delivered.
func (h *Hypercube[T]) RouteValiant(p permute.Permutation, rng *rand.Rand) (int, error) {
	if err := validateRoute(h.Name(), h.Nodes(), p); err != nil {
		return 0, err
	}
	if rng == nil {
		return 0, fmt.Errorf("netsim: RouteValiant needs a random source")
	}
	n := h.Nodes()
	dims := h.topo.Dims
	sp := h.cfg.Obs.StartUnder("route").SetCat(obs.CatNetsim)
	defer sp.End()

	nextDim := func(cur, dst int) int {
		diff := cur ^ dst
		for d := 0; d < dims; d++ {
			if diff>>uint(d)&1 == 1 {
				return d
			}
		}
		return -1
	}

	queues := make([][][]*valiantPacket[T], n)
	for i := range queues {
		queues[i] = make([][]*valiantPacket[T], dims)
	}
	out := make([]T, n)
	copy(out, h.vals)
	remaining := 0

	// place enqueues pkt at node cur, or delivers/retargets it.
	var place func(cur int, pkt *valiantPacket[T]) bool // returns true when delivered
	place = func(cur int, pkt *valiantPacket[T]) bool {
		for {
			t := pkt.target()
			if cur == t {
				if pkt.phase == 1 {
					out[cur] = pkt.val
					return true
				}
				pkt.phase = 1
				continue
			}
			d := nextDim(cur, t)
			queues[cur][d] = append(queues[cur][d], pkt)
			return false
		}
	}

	for i, dst := range p {
		if dst == i {
			continue
		}
		pkt := &valiantPacket[T]{mid: rng.Intn(n), dst: dst, val: h.vals[i]}
		if !place(i, pkt) {
			remaining++
		}
	}

	steps := 0
	for remaining > 0 {
		if steps > h.maxStep {
			return steps, fmt.Errorf("netsim: Valiant routing exceeded %d steps", h.maxStep)
		}
		type arrival struct {
			node int
			pkt  *valiantPacket[T]
		}
		var arrivals []arrival
		moved := false
		for node := 0; node < n; node++ {
			for d := 0; d < dims; d++ {
				q := queues[node][d]
				if len(q) == 0 {
					continue
				}
				pkt := q[0]
				queues[node][d] = q[1:]
				arrivals = append(arrivals, arrival{node: bits.FlipBit(node, d), pkt: pkt})
				h.stats.LinkTraversals++
				moved = true
			}
		}
		if !moved {
			return steps, fmt.Errorf("netsim: Valiant routing deadlocked with %d packets left", remaining)
		}
		for _, a := range arrivals {
			if place(a.node, a.pkt) {
				remaining--
			} else {
				for d := 0; d < dims; d++ {
					if l := len(queues[a.node][d]); l > h.stats.MaxQueue {
						h.stats.MaxQueue = l
					}
				}
			}
		}
		steps++
	}
	copy(h.vals, out)
	h.stats.Steps += steps
	sp.SetDetail("valiant two-phase").AddSteps(steps)
	return steps, nil
}
