package netsim

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/clos"
	"repro/internal/obs"
	"repro/internal/permute"
	"repro/internal/topology"
)

// Hypermesh is a simulated SIMD machine on a base-b n-dimensional
// hypermesh. In one data-transfer step every hypergraph net realizes an
// arbitrary permutation of the registers of its b members, all nets in
// parallel — the defining capability that separates a hypermesh net from
// a shared bus (§II).
type Hypermesh[T any] struct {
	topo *topology.Hypermesh
	cfg  Config
	vals []T
	// digitBits is log2(Base) when Base is a power of two (required for
	// ExchangeCompute); -1 otherwise.
	digitBits int
	stats     Stats

	// Reusable scratch (a machine is single-goroutine by contract):
	// exOld backs ExchangeCompute's snapshot, pmBuf the next-register
	// image each PermuteNets phase builds.
	exOld []T
	pmBuf []T
}

// NewHypermesh creates a base^dims hypermesh machine.
func NewHypermesh[T any](base, dims int, cfg Config) (*Hypermesh[T], error) {
	if base < 2 || dims < 1 {
		return nil, fmt.Errorf("netsim: invalid hypermesh shape %d^%d", base, dims)
	}
	t := topology.NewHypermesh(base, dims)
	db := -1
	if bits.IsPow2(base) {
		db = bits.Log2(base)
	}
	return &Hypermesh[T]{
		topo:      t,
		cfg:       cfg,
		vals:      make([]T, t.Nodes()),
		digitBits: db,
		exOld:     make([]T, t.Nodes()),
	}, nil
}

// Name implements Machine.
func (h *Hypermesh[T]) Name() string { return h.topo.Name() }

// Nodes implements Machine.
func (h *Hypermesh[T]) Nodes() int { return h.topo.Nodes() }

// Values implements Machine.
func (h *Hypermesh[T]) Values() []T { return h.vals }

// Stats implements Machine.
func (h *Hypermesh[T]) Stats() Stats { return h.stats }

// ResetStats implements Machine.
func (h *Hypermesh[T]) ResetStats() { h.stats = Stats{} }

// Topology exposes the underlying static topology.
func (h *Hypermesh[T]) Topology() *topology.Hypermesh { return h.topo }

// ExchangeCompute implements Machine. When the base is a power of two,
// global address bit `bit` lies inside digit bit/log2(base); the
// exchange partners of every node share a net of that dimension, so the
// whole Butterfly permutation is one net permutation: a single
// data-transfer step, exactly as on the hypercube (§III.C).
func (h *Hypermesh[T]) ExchangeCompute(bit int, f func(self, partner T, node int) T) error {
	if h.digitBits < 0 {
		return fmt.Errorf("netsim: hypermesh base %d is not a power of two; bitwise exchange undefined", h.topo.Base)
	}
	total := h.digitBits * h.topo.Dims
	if bit < 0 || bit >= total {
		return fmt.Errorf("netsim: hypermesh exchange bit %d out of range [0,%d)", bit, total)
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

// dimensionLocal reports whether p only changes digit `dim` of every
// node address. It returns (0, nil, true) for the identity, and the
// per-net permutations ready for PermuteNets otherwise.
func (h *Hypermesh[T]) dimensionLocal(p permute.Permutation) (int, [][]int, bool) {
	b, dims := h.topo.Base, h.topo.Dims
	changed := -1 // the single dimension allowed to change
	for src, dst := range p {
		if src == dst {
			continue
		}
		for d := 0; d < dims; d++ {
			if bits.Digit(src, b, d) != bits.Digit(dst, b, d) {
				if changed == -1 {
					changed = d
				} else if changed != d {
					return 0, nil, false
				}
			}
		}
	}
	if changed == -1 {
		return 0, nil, true // identity
	}
	perDim := bits.Pow(b, dims-1)
	perms := make([][]int, perDim)
	for rest := range perms {
		perm := make([]int, b)
		members := h.topo.NetMembers(changed*perDim + rest)
		for j, node := range members {
			perm[j] = bits.Digit(p[node], b, changed)
		}
		perms[rest] = perm
	}
	return changed, perms, true
}

// PermuteNets performs one data-transfer step in which every net of the
// given dimension applies its own permutation of member registers.
// perms[rest][j] = j2 moves the register of the member with digit value
// j to the member with digit value j2, within the net identified by the
// packed remaining digits `rest` (the same indexing as
// topology.Hypermesh.NetMembers).
func (h *Hypermesh[T]) PermuteNets(dim int, perms [][]int) error {
	if dim < 0 || dim >= h.topo.Dims {
		return fmt.Errorf("netsim: hypermesh dimension %d out of range", dim)
	}
	perDim := bits.Pow(h.topo.Base, h.topo.Dims-1)
	if len(perms) != perDim {
		return fmt.Errorf("netsim: PermuteNets wants %d per-net permutations, got %d", perDim, len(perms))
	}
	sp := h.cfg.Obs.StartUnder("net-permute").SetCat(obs.CatNetsim)
	defer sp.End()
	if h.pmBuf == nil {
		h.pmBuf = make([]T, h.Nodes())
	}
	next := h.pmBuf
	copy(next, h.vals)
	for rest, perm := range perms {
		if err := permute.Permutation(perm).Validate(); err != nil {
			return fmt.Errorf("netsim: net %d: %w", rest, err)
		}
		if len(perm) != h.topo.Base {
			return fmt.Errorf("netsim: net %d permutation has size %d, want %d", rest, len(perm), h.topo.Base)
		}
		members := h.topo.NetMembers(dim*perDim + rest)
		for j, j2 := range perm {
			if j2 != j {
				next[members[j2]] = h.vals[members[j]]
				h.stats.LinkTraversals++
			}
		}
	}
	h.vals, h.pmBuf = next, h.vals
	h.stats.Steps++
	if sp != nil {
		sp.SetDetail(fmt.Sprintf("dimension %d", dim)).AddSteps(1)
	}
	return nil
}

// Route implements Machine. Any permutation is realized in at most
// 2*Dims - 1 data-transfer steps via the rearrangeable (Slepian–Duguid)
// decomposition of package clos — for the 2D hypermesh that is the
// paper's row/column/row bound of at most 3 steps. Identity phases are
// skipped, so simple permutations cost fewer steps.
func (h *Hypermesh[T]) Route(p permute.Permutation) (int, error) {
	if err := validateRoute(h.Name(), h.Nodes(), p); err != nil {
		return 0, err
	}
	// Words counts the registers the caller's permutation relocates,
	// once, regardless of how many net phases realize it — the
	// engine-invariant payload volume, not the decomposition's detours.
	for i, dst := range p {
		if dst != i {
			h.stats.Words++
		}
	}
	// Fast path: a permutation that only moves packets within the nets
	// of a single dimension is itself one net phase — one step.
	if dim, perms, ok := h.dimensionLocal(p); ok {
		if perms == nil {
			return 0, nil // identity
		}
		return 1, h.PermuteNets(dim, perms)
	}
	// The route span carries no step cost of its own: the per-phase
	// net-permute spans it encloses own the steps, so summing step costs
	// over spans never double-counts.
	sp := h.cfg.Obs.StartUnder("route").SetCat(obs.CatNetsim).SetDetail("rearrangeable decomposition")
	defer sp.End()
	prev := h.cfg.Obs.SetParent(sp)
	defer h.cfg.Obs.SetParent(prev)
	phases, err := clos.DecomposeND(h.topo.Base, h.topo.Dims, p)
	if err != nil {
		return 0, err
	}
	steps := 0
	for _, ph := range phases {
		if ph.IsIdentity() {
			continue
		}
		if err := h.PermuteNets(ph.Dim, ph.Perms); err != nil {
			return steps, err
		}
		steps++
	}
	return steps, nil
}
