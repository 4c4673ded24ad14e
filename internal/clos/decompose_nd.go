package clos

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/permute"
)

// NetPhase is one data-transfer step on a base-b hypermesh of any
// dimensionality: every net of dimension Dim applies its own permutation
// of member registers. Perms is indexed exactly like
// topology.Hypermesh.NetMembers — by the node's remaining digits packed
// little-endian in increasing dimension order — and Perms[rest][j] = j2
// moves the register of the member with digit value j to the member with
// digit value j2.
type NetPhase struct {
	Dim   int
	Perms [][]int
}

// IsIdentity reports whether the phase moves nothing.
func (ph NetPhase) IsIdentity() bool {
	return phaseIsIdentity(ph.Perms)
}

// DecomposeND factors an arbitrary permutation of a base-b,
// dims-dimensional hypermesh's b^dims nodes into at most 2*dims-1 net
// phases, generalizing the 2D row/column/row decomposition: the phase
// dimensions follow the palindrome 0, 1, ..., dims-1, ..., 1, 0.
//
// The construction is the recursive Clos argument. Viewing dimension 0's
// nets as input/output switches (b ports each) and the b slices with
// fixed digit 0 as middle switches, the b-regular bipartite multigraph
// from source nets to destination nets is edge-coloured with b colours
// (Birkhoff–von Neumann); colour c routes through slice c, and each
// slice is then a (dims-1)-dimensional sub-hypermesh solved recursively.
//
// Identity phases are retained so callers can count real steps with
// NetPhase.IsIdentity; the returned slice always has length 2*dims-1
// (or 1 for dims == 1).
func DecomposeND(base, dims int, p permute.Permutation) ([]NetPhase, error) {
	if base < 1 {
		return nil, fmt.Errorf("clos: base %d < 1", base)
	}
	if dims < 1 {
		return nil, fmt.Errorf("clos: dims %d < 1", dims)
	}
	n := bits.Pow(base, dims)
	if len(p) != n {
		return nil, fmt.Errorf("clos: permutation size %d does not match %d^%d = %d", len(p), base, dims, n)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("clos: %w", err)
	}
	return decomposeRec(base, dims, p)
}

// decomposeRec does the actual recursion on validated input.
func decomposeRec(b, dims int, p []int) ([]NetPhase, error) {
	if dims == 1 {
		return []NetPhase{{Dim: 0, Perms: [][]int{append([]int(nil), p...)}}}, nil
	}
	r := bits.Pow(b, dims-1)

	// Edge-colour the source-net -> destination-net multigraph with b
	// colours; colour = the digit-0 slice the packet transits.
	mult := make([][]int, r)
	for i := range mult {
		mult[i] = make([]int, r)
	}
	for src, dst := range p {
		mult[src/b][dst/b]++
	}
	classes, err := colourClasses(mult, b)
	if err != nil {
		return nil, err
	}
	// colors[sRest][dRest] lists the colours of the sRest -> dRest
	// edges; parallel edges consume them in colour order.
	colors := make([][][]int, r)
	for i := range colors {
		colors[i] = make([][]int, r)
	}
	for c, match := range classes {
		for sRest, dRest := range match {
			colors[sRest][dRest] = append(colors[sRest][dRest], c)
		}
	}

	// Assign every packet its slice and derive the outer phases plus the
	// per-slice sub-permutations.
	first := NetPhase{Dim: 0, Perms: identityRows(r, b)}
	last := NetPhase{Dim: 0, Perms: identityRows(r, b)}
	subPerms := make([][]int, b) // subPerms[c][srcRest] = dstRest
	for c := range subPerms {
		subPerms[c] = make([]int, r)
		for i := range subPerms[c] {
			subPerms[c][i] = -1
		}
	}
	next := make([][]int, r)
	for i := range next {
		next[i] = make([]int, r)
	}
	for src, dst := range p {
		sRest, s0 := src/b, src%b
		dRest, d0 := dst/b, dst%b
		ci := next[sRest][dRest]
		next[sRest][dRest]++
		c := colors[sRest][dRest][ci]
		first.Perms[sRest][s0] = c
		if subPerms[c][sRest] != -1 {
			return nil, fmt.Errorf("clos: internal error: slice %d receives two packets from net %d", c, sRest)
		}
		subPerms[c][sRest] = dRest
		last.Perms[dRest][c] = d0
	}
	for c := range subPerms {
		if err := permute.Permutation(subPerms[c]).Validate(); err != nil {
			return nil, fmt.Errorf("clos: internal error: slice %d sub-problem: %w", c, err)
		}
	}

	// Recurse per slice and merge phase k of every slice into one global
	// phase; the sub-phase structure (dimension sequence) is uniform
	// across slices by construction.
	subPhases := make([][]NetPhase, b)
	for c := 0; c < b; c++ {
		var err error
		subPhases[c], err = decomposeRec(b, dims-1, subPerms[c])
		if err != nil {
			return nil, err
		}
	}
	phases := []NetPhase{first}
	perDim := bits.Pow(b, dims-2) // rest entries per sub-phase
	for k := range subPhases[0] {
		subDim := subPhases[0][k].Dim
		merged := NetPhase{Dim: subDim + 1, Perms: make([][]int, r)}
		for c := 0; c < b; c++ {
			if subPhases[c][k].Dim != subDim {
				return nil, fmt.Errorf("clos: internal error: slice phase dimensions diverge")
			}
			for subRest := 0; subRest < perDim; subRest++ {
				// Global rest packs digit 0 (the slice id) as its lowest
				// digit, then the sub-rest digits above it.
				merged.Perms[subRest*b+c] = subPhases[c][k].Perms[subRest]
			}
		}
		phases = append(phases, merged)
	}
	phases = append(phases, last)
	return phases, nil
}

func identityRows(rows, width int) [][]int {
	out := make([][]int, rows)
	for i := range out {
		out[i] = make([]int, width)
		for j := range out[i] {
			out[i][j] = j
		}
	}
	return out
}

// ApplyPhases applies the phases to a value vector laid out by node id
// (little-endian base-b digits), returning the routed vector; tests use
// it to verify DecomposeND without a simulator.
func ApplyPhases(base, dims int, phases []NetPhase, vals []int) ([]int, error) {
	n := bits.Pow(base, dims)
	if len(vals) != n {
		return nil, fmt.Errorf("clos: value vector length %d != %d", len(vals), n)
	}
	cur := append([]int(nil), vals...)
	perDim := bits.Pow(base, dims-1)
	for _, ph := range phases {
		if ph.Dim < 0 || ph.Dim >= dims {
			return nil, fmt.Errorf("clos: phase dimension %d out of range", ph.Dim)
		}
		if len(ph.Perms) != perDim {
			return nil, fmt.Errorf("clos: phase has %d perms, want %d", len(ph.Perms), perDim)
		}
		nxt := append([]int(nil), cur...)
		stride := bits.Pow(base, ph.Dim)
		for rest := 0; rest < perDim; rest++ {
			if err := permute.Permutation(ph.Perms[rest]).Validate(); err != nil {
				return nil, fmt.Errorf("clos: phase dim %d net %d: %w", ph.Dim, rest, err)
			}
			// Reconstruct the net's member node ids from the packed rest
			// digits (same scheme as topology.Hypermesh.NetMembers).
			lowDigits := rest % stride  // digits below Dim
			highDigits := rest / stride // digits above Dim
			baseNode := highDigits*stride*base + lowDigits
			for j, j2 := range ph.Perms[rest] {
				if j2 != j {
					nxt[baseNode+j2*stride] = cur[baseNode+j*stride]
				}
			}
		}
		cur = nxt
	}
	return cur, nil
}

// CountSteps returns the number of non-identity phases.
func CountSteps(phases []NetPhase) int {
	s := 0
	for _, ph := range phases {
		if !ph.IsIdentity() {
			s++
		}
	}
	return s
}

// DecomposeMultigraph splits a nonnegative integer matrix whose every
// row and column sums to d into d permutation matrices (Birkhoff–von
// Neumann). mult[i][j] is the number of parallel edges from left vertex
// i to right vertex j. The blocked FFT uses it to schedule an
// all-to-all word redistribution as d one-word-per-node permutations.
func DecomposeMultigraph(mult [][]int, d int) ([]permute.Permutation, error) {
	r := len(mult)
	for i := range mult {
		if len(mult[i]) != r {
			return nil, fmt.Errorf("clos: multigraph matrix is not square")
		}
		rowSum := 0
		for _, v := range mult[i] {
			if v < 0 {
				return nil, fmt.Errorf("clos: negative multiplicity")
			}
			rowSum += v
		}
		if rowSum != d {
			return nil, fmt.Errorf("clos: row %d sums to %d, want %d", i, rowSum, d)
		}
	}
	for j := 0; j < r; j++ {
		colSum := 0
		for i := 0; i < r; i++ {
			colSum += mult[i][j]
		}
		if colSum != d {
			return nil, fmt.Errorf("clos: column %d sums to %d, want %d", j, colSum, d)
		}
	}
	return colourClasses(mult, d)
}

// colourClasses edge-colours the d-regular bipartite multigraph
// mult[i][j] (parallel edges from left vertex i to right vertex j) with
// d colours by extracting d perfect matchings in turn (Birkhoff–von
// Neumann via Hall's theorem); colour c's matching sends left vertex i
// to right vertex classes[c][i]. Every row and column of mult must sum
// to d; mult is left unchanged.
func colourClasses(mult [][]int, d int) ([]permute.Permutation, error) {
	work := make([][]int, len(mult))
	for i := range work {
		work[i] = append([]int(nil), mult[i]...)
	}
	classes := make([]permute.Permutation, d)
	for c := range classes {
		match, ok := perfectMatching(work)
		if !ok {
			// Cannot happen for a d-regular multigraph (Hall's condition
			// holds); guard anyway so corruption fails loudly.
			return nil, fmt.Errorf("clos: no perfect matching at colour %d", c)
		}
		for i, j := range match {
			work[i][j]--
		}
		classes[c] = match
	}
	return classes, nil
}
