package netsim

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/obs"
	"repro/internal/permute"
	"repro/internal/topology"
)

// Mesh is a simulated SIMD machine on a 2D mesh (or torus) with a
// power-of-two side length, registers laid out in row-major order. The
// global address of node (r, c) is r*side + c, so the low log2(side)
// address bits select the column and the high bits select the row — the
// embedding the paper's §III.B analysis assumes.
type Mesh[T any] struct {
	topo    *topology.Mesh2D
	cfg     Config
	vals    []T
	stats   Stats
	axBits  int // log2(side)
	maxStep int // safety cap for Route

	// Reusable scratch (a machine is single-goroutine by contract):
	// exOld backs ExchangeCompute's pre-exchange snapshot; the r* slabs
	// back Route's queues, output registers and per-step arrivals.
	exOld []T
	rq    []pktQueue[meshPacket[T]] // node*numDirs + dir
	rout  []T
	rarr  []meshArrival[T]
}

// NewMesh creates a mesh machine with n = side^2 nodes; side must be a
// power of two.
func NewMesh[T any](side int, wrap bool, cfg Config) (*Mesh[T], error) {
	if !bits.IsPow2(side) {
		return nil, fmt.Errorf("netsim: mesh side %d is not a power of two", side)
	}
	t := topology.NewMesh2D(side, wrap)
	return &Mesh[T]{
		topo:    t,
		cfg:     cfg,
		vals:    make([]T, t.Nodes()),
		axBits:  bits.Log2(side),
		maxStep: 100 * t.Nodes(),
		exOld:   make([]T, t.Nodes()),
	}, nil
}

// Name implements Machine.
func (m *Mesh[T]) Name() string { return m.topo.Name() }

// Nodes implements Machine.
func (m *Mesh[T]) Nodes() int { return m.topo.Nodes() }

// Values implements Machine.
func (m *Mesh[T]) Values() []T { return m.vals }

// Stats implements Machine.
func (m *Mesh[T]) Stats() Stats { return m.stats }

// ResetStats implements Machine.
func (m *Mesh[T]) ResetStats() { m.stats = Stats{} }

// Topology exposes the underlying static topology.
func (m *Mesh[T]) Topology() *topology.Mesh2D { return m.topo }

// ExchangeCompute implements Machine. Address bit `bit` lies in the
// column half (bit < log2 side) or the row half; the paired nodes are
// 2^(bit mod log2 side) apart in that axis, and the exchange costs
// exactly that many data-transfer steps: all packets stream toward their
// partners simultaneously, one hop per step, using each link direction
// at most once per step (verified).
func (m *Mesh[T]) ExchangeCompute(bit int, f func(self, partner T, node int) T) error {
	if bit < 0 || bit >= 2*m.axBits {
		return fmt.Errorf("netsim: mesh exchange bit %d out of range [0,%d)", bit, 2*m.axBits)
	}
	alongRow := bit < m.axBits
	d := 1 << uint(bit%m.axBits)

	// Verify the streaming schedule is link-conflict-free: packet from
	// node i advances one hop per step toward its partner; per (link,
	// direction, step) at most one packet.
	if err := m.verifyStreaming(alongRow, d); err != nil {
		return err
	}

	sp := m.cfg.Obs.StartUnder("exchange").SetCat(obs.CatNetsim)
	exchangeCompute(m.vals, m.exOld, m.cfg.workers(), func(i int) int {
		return bits.FlipBit(i, bit)
	}, f)
	m.stats.Steps += d
	m.stats.ComputeSteps++
	m.stats.LinkTraversals += d * m.Nodes()
	m.stats.Words += m.Nodes()
	if sp != nil {
		sp.SetDetail(fmt.Sprintf("bit %d (distance %d)", bit, d)).AddSteps(d)
	}
	sp.End()
	return nil
}

// verifyStreaming checks that the distance-d simultaneous pairwise
// exchange uses every directed link at most once per step.
func (m *Mesh[T]) verifyStreaming(alongRow bool, d int) error {
	side := m.topo.Side
	n := m.Nodes()
	// lastUsed[dir][linkID] = last step the directed link carried a
	// packet; linkID is the node id of the link's low endpoint along the
	// moving axis.
	lastUsed := [2][]int{make([]int, n), make([]int, n)}
	for dir := range lastUsed {
		for i := range lastUsed[dir] {
			lastUsed[dir][i] = -1
		}
	}
	for step := 1; step <= d; step++ {
		for i := 0; i < n; i++ {
			r, c := i/side, i%side
			var origin int
			if alongRow {
				origin = c
			} else {
				origin = r
			}
			moveRight := origin&d == 0 // bit d of the axis position is clear
			var from int
			if moveRight {
				from = origin + step - 1
			} else {
				from = origin - step + 1
			}
			// link low endpoint along axis
			var low int
			var dirIdx int
			if moveRight {
				low, dirIdx = from, 0
			} else {
				low, dirIdx = from-1, 1
			}
			if low < 0 || low >= side-1 {
				return fmt.Errorf("netsim: mesh streaming left the array (internal error)")
			}
			var linkID int
			if alongRow {
				linkID = r*side + low
			} else {
				linkID = low*side + c
			}
			if lastUsed[dirIdx][linkID] == step {
				return fmt.Errorf("netsim: mesh streaming link conflict at step %d", step)
			}
			lastUsed[dirIdx][linkID] = step
		}
	}
	return nil
}

// meshPacket is an in-flight packet during Route.
type meshPacket[T any] struct {
	dst int
	val T
	seq int // injection order, for deterministic FIFO tie-breaking
}

// meshArrival is a packet crossing a link within the current step.
type meshArrival[T any] struct {
	node int
	pkt  meshPacket[T]
}

// direction indices for the four mesh ports.
const (
	dirE = iota // +column
	dirW        // -column
	dirS        // +row
	dirN        // -row
	numDirs
)

// Route implements Machine using queued dimension-order (column-first)
// store-and-forward routing: every directed link moves at most one
// packet per step; packets wait in FIFO output queues. The returned step
// count is the makespan — the paper's "number of parallel data transfer
// steps" for the permutation.
func (m *Mesh[T]) Route(p permute.Permutation) (int, error) {
	if err := validateRoute(m.Name(), m.Nodes(), p); err != nil {
		return 0, err
	}
	side := m.topo.Side
	n := m.Nodes()

	// nextDir decides the outgoing port for a packet at node cur.
	nextDir := func(cur, dst int) int {
		cr, cc := cur/side, cur%side
		dr, dc := dst/side, dst%side
		if cc != dc {
			if !m.topo.Wrap {
				if dc > cc {
					return dirE
				}
				return dirW
			}
			fwd := ((dc-cc)%side + side) % side
			if fwd <= side-fwd {
				return dirE
			}
			return dirW
		}
		if cr != dr {
			if !m.topo.Wrap {
				if dr > cr {
					return dirS
				}
				return dirN
			}
			fwd := ((dr-cr)%side + side) % side
			if fwd <= side-fwd {
				return dirS
			}
			return dirN
		}
		return -1
	}

	neighbor := func(cur, dir int) int {
		r, c := cur/side, cur%side
		switch dir {
		case dirE:
			c = (c + 1) % side
		case dirW:
			c = (c - 1 + side) % side
		case dirS:
			r = (r + 1) % side
		case dirN:
			r = (r - 1 + side) % side
		}
		return r*side + c
	}

	sp := m.cfg.Obs.StartUnder("route").SetCat(obs.CatNetsim)
	defer sp.End()

	// Reuse the routing slabs across calls; every destination receives
	// exactly one packet, so out needs no clearing between permutations.
	if m.rq == nil {
		m.rq = make([]pktQueue[meshPacket[T]], n*numDirs)
		m.rout = make([]T, n)
	}
	for i := range m.rq {
		m.rq[i].reset()
	}
	queues := m.rq
	out := m.rout
	remaining := 0
	for i, dst := range p {
		if dst == i {
			out[i] = m.vals[i]
			continue
		}
		d := nextDir(i, dst)
		queues[i*numDirs+d].push(meshPacket[T]{dst: dst, val: m.vals[i], seq: i})
		remaining++
	}
	m.stats.Words += remaining

	steps := 0
	arrivals := m.rarr
	for remaining > 0 {
		if steps > m.maxStep {
			return steps, fmt.Errorf("netsim: mesh routing exceeded %d steps (livelock?)", m.maxStep)
		}
		arrivals = arrivals[:0]
		moved := false
		for node := 0; node < n; node++ {
			for dir := 0; dir < numDirs; dir++ {
				q := &queues[node*numDirs+dir]
				if q.len() == 0 {
					continue
				}
				if !m.topo.Wrap {
					// boundary ports do not exist on a mesh
					r, c := node/side, node%side
					if (dir == dirE && c == side-1) || (dir == dirW && c == 0) ||
						(dir == dirS && r == side-1) || (dir == dirN && r == 0) {
						return steps, fmt.Errorf("netsim: packet queued on nonexistent boundary port")
					}
				}
				arrivals = append(arrivals, meshArrival[T]{node: neighbor(node, dir), pkt: q.pop()})
				m.stats.LinkTraversals++
				moved = true
			}
		}
		if !moved {
			return steps, fmt.Errorf("netsim: mesh routing deadlocked with %d packets left", remaining)
		}
		for _, a := range arrivals {
			if a.node == a.pkt.dst {
				out[a.node] = a.pkt.val
				remaining--
				continue
			}
			d := nextDir(a.node, a.pkt.dst)
			q := &queues[a.node*numDirs+d]
			q.push(a.pkt)
			if l := q.len(); l > m.stats.MaxQueue {
				m.stats.MaxQueue = l
			}
		}
		steps++
	}
	m.rarr = arrivals // keep the grown capacity for the next call
	copy(m.vals, out)
	m.stats.Steps += steps
	sp.SetDetail("store-and-forward").AddSteps(steps)
	return steps, nil
}

// ShiftRows moves every register delta positions along its row (positive
// = toward higher columns), wrapping around on a torus. On a plain mesh
// it returns an error (data would fall off the edge). Cost: |delta|
// steps. Bitonic sort and transpose schedules use it.
func (m *Mesh[T]) ShiftRows(delta int) error {
	if delta == 0 {
		return nil
	}
	if !m.topo.Wrap {
		return fmt.Errorf("netsim: ShiftRows requires wraparound links")
	}
	sp := m.cfg.Obs.StartUnder("shift").SetCat(obs.CatNetsim)
	side := m.topo.Side
	p := make(permute.Permutation, m.Nodes())
	for i := range p {
		r, c := i/side, i%side
		p[i] = r*side + ((c+delta)%side+side)%side
	}
	nv := permute.Apply(p, m.vals)
	copy(m.vals, nv)
	d := delta
	if d < 0 {
		d = -d
	}
	if d > side/2 {
		d = side - d%side
	}
	m.stats.Steps += d
	m.stats.LinkTraversals += d * m.Nodes()
	m.stats.Words += m.Nodes()
	if sp != nil {
		sp.SetDetail(fmt.Sprintf("rows by %d", delta)).AddSteps(d)
	}
	sp.End()
	return nil
}
