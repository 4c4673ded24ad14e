// Package netsim is a synchronous, word-level simulator for the SIMD
// machines the paper compares: a 2D mesh (optionally a torus), a binary
// hypercube, and a 2D hypermesh, all operating on one register per
// processing element.
//
// The simulator works at the paper's level of abstraction: every packet
// is an indivisible unit, time advances in data-transfer steps, and in
// one step every link (or, on a hypermesh, every hypergraph net) moves
// at most one packet per direction. Machines expose two operations:
//
//   - ExchangeCompute(bit, f): the butterfly primitive. Every node
//     exchanges its register with the node whose global index differs in
//     the given address bit and computes a new register value. Cost: one
//     step on the hypercube and hypermesh; 2^d steps on the mesh, where
//     2^d is the physical row/column distance of the pair — exactly the
//     accounting behind Table 2A.
//
//   - Route(p): deliver an arbitrary permutation of registers with the
//     machine's native routing (queued dimension-order store-and-forward
//     on mesh and hypercube; the three-phase rearrangeable decomposition
//     on the 2D hypermesh).
//
// Every machine counts steps and link traversals so that experiments can
// multiply measured step counts by the hardware model's per-step times.
// Computation inside ExchangeCompute is spread over a worker pool (one
// goroutine per CPU by default), mirroring how an HPC host would model
// thousands of PEs.
package netsim

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/roofline"
	"repro/internal/permute"
)

// Stats accumulates the cost counters of a machine.
type Stats struct {
	// Steps is the number of parallel data-transfer steps performed —
	// the paper's primary cost metric.
	Steps int
	// ComputeSteps counts the parallel computation steps (one per
	// ExchangeCompute call); the paper counts log N of these for the FFT
	// on every network.
	ComputeSteps int
	// LinkTraversals is the total number of packet-over-link (or
	// packet-through-net) movements, an aggregate load measure.
	LinkTraversals int
	// MaxQueue is the largest per-node queue length observed while
	// routing arbitrary permutations (0 for conflict-free schedules).
	MaxQueue int
	// Words counts payload words the workload injects into the network:
	// one per node on every ExchangeCompute, one per relocated register
	// on every Route (and mesh ShiftRows) call. Unlike Steps and
	// LinkTraversals, it is topology-invariant by construction — the same
	// schedule reports the same Words on every machine — so it measures
	// the workload's intrinsic communication volume, the quantity the
	// BSP lower bound (internal/obs/roofline) prices. Intermediate hops
	// taken to realize a relocation are deliberately not re-counted.
	Words int
}

// WordBytes is the payload size of one simulated register word: a
// complex128, matching the serving path's 16 bytes per sample so
// simulated and measured communication volumes share one unit.
const WordBytes = 16

// CommBytes converts the counted payload words to bytes.
func (s Stats) CommBytes() int64 { return int64(s.Words) * WordBytes }

// CommRoofline compares a butterfly run's communication volume against
// the BSP lower bound for an n-point butterfly on this machine's n PEs
// (one register each): achieved bytes over optimal bytes, ≥ 1 for any
// schedule that actually computes the butterfly, 0 when the bound is
// degenerate (n < 2). All machines report the same ratio for the same
// schedule because Words is topology-invariant.
func CommRoofline(n int, s Stats) float64 {
	return roofline.Ratio(float64(s.CommBytes()), roofline.ButterflyBytes(n, n, WordBytes))
}

// Config controls simulation execution.
type Config struct {
	// Workers is the size of the compute worker pool; 0 means
	// runtime.GOMAXPROCS(0). Set 1 for fully sequential execution (the
	// oracle mode in tests).
	Workers int

	// Obs, when non-nil, reports every machine operation (exchange, net
	// permutation, bit swap, route, shift) once, as a span of category
	// obs.CatNetsim carrying its detail and data-transfer step cost,
	// nested under the driver's current span (obs.Tracer.SetParent).
	// The nil default costs one pointer comparison per operation, and
	// the untraced path never formats a detail string.
	Obs *obs.Tracer
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// Machine is the common surface of the three simulated SIMD networks,
// generic over the register payload type.
type Machine[T any] interface {
	// Name identifies the underlying topology.
	Name() string
	// Nodes returns the number of processing elements.
	Nodes() int
	// Values exposes the register file, one value per node. Callers may
	// read and write it between operations.
	Values() []T
	// Stats returns the accumulated cost counters.
	Stats() Stats
	// ResetStats zeroes the cost counters.
	ResetStats()
	// ExchangeCompute pairs every node with the node whose global index
	// differs in address bit `bit`, and sets each node's register to
	// f(self, partner, node).
	ExchangeCompute(bit int, f func(self, partner T, node int) T) error
	// Route rearranges registers so that the value of node i moves to
	// node p[i], using the machine's native routing, and returns the
	// number of data-transfer steps it took.
	Route(p permute.Permutation) (int, error)
}

// parallelFor runs fn(i) for i in [0, n) across the configured number of
// workers. fn must be safe to run concurrently for distinct i.
func parallelFor(n, workers int, fn func(i int)) {
	if workers <= 1 || n < 256 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// exchangeCompute applies the register update for a conflict-free
// pairwise exchange given a partner function; shared by all machines.
// old is caller-owned scratch of len(vals) (machines keep one and reuse
// it across exchanges, so the log N butterfly stages of an FFT perform
// no per-stage allocation).
func exchangeCompute[T any](vals, old []T, workers int, partner func(i int) int, f func(self, partner T, node int) T) {
	copy(old, vals)
	parallelFor(len(vals), workers, func(i int) {
		vals[i] = f(old[i], old[partner(i)], i)
	})
}

// pktQueue is a reusable FIFO for the store-and-forward routing
// engines. reset keeps the backing array, so a machine's repeated Route
// calls reuse one packet slab instead of reallocating per call.
type pktQueue[P any] struct {
	buf  []P
	head int
}

func (q *pktQueue[P]) push(p P) { q.buf = append(q.buf, p) }
func (q *pktQueue[P]) pop() P   { p := q.buf[q.head]; q.head++; return p }
func (q *pktQueue[P]) len() int { return len(q.buf) - q.head }
func (q *pktQueue[P]) reset()   { q.buf = q.buf[:0]; q.head = 0 }

// validateRoute rejects permutations whose size does not match a
// machine.
func validateRoute(name string, n int, p permute.Permutation) error {
	if len(p) != n {
		return fmt.Errorf("netsim: %s: permutation size %d != %d nodes", name, len(p), n)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("netsim: %s: %w", name, err)
	}
	return nil
}
