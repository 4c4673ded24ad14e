// Package clos implements rearrangeable permutation routing for the 2D
// hypermesh: any permutation of the b^2 processing elements decomposes
// into at most three data-transfer steps — a permutation within every
// row, then within every column, then within every row again.
//
// This is "property [6]" of Szymanski's Supercomputing'90 hypermesh paper
// that the FFT paper invokes to bound the bit-reversal at 3 steps; the
// construction is the classic Slepian–Duguid argument for three-stage
// Clos networks. Each packet travelling from (r0,c0) to (r2,c2) is
// assigned an intermediate column c1; the assignment is an edge colouring
// of the b-regular bipartite multigraph whose edges join source rows to
// destination rows, obtained here by repeatedly extracting perfect
// matchings (Birkhoff–von Neumann decomposition via Hall's theorem).
package clos

import (
	"fmt"

	"repro/internal/permute"
)

// Phases is a three-step realization of a permutation on a b x b array
// of nodes in row-major order. Row1[r][j] = j2 means: in the first step,
// the packet held by node (r, j) moves to node (r, j2). Col[c][i] = i2
// means: in the second step, the packet at (i, c) moves to (i2, c).
// Row2 is a second row phase like Row1.
//
// Each of the three phase slices is a valid permutation per row/column,
// so a hypermesh can realize each phase in a single data-transfer step
// (one permutation per hypergraph net, all nets in parallel).
type Phases struct {
	B    int
	Row1 [][]int
	Col  [][]int
	Row2 [][]int
}

// Decompose factors an arbitrary permutation p of n = b*b elements into
// three hypermesh phases: DecomposeND on a 2D hypermesh, whose phases
// 0, 1 and 2 are Row1, Col and Row2. It returns an error if p is not a
// valid permutation of size b*b.
func Decompose(b int, p permute.Permutation) (*Phases, error) {
	phases, err := DecomposeND(b, 2, p)
	if err != nil {
		return nil, err
	}
	return &Phases{B: b, Row1: phases[0].Perms, Col: phases[1].Perms, Row2: phases[2].Perms}, nil
}

// perfectMatching finds a perfect matching in the bipartite multigraph
// given by a nonnegative multiplicity matrix using Kuhn's augmenting-path
// algorithm. It returns match[left] = right.
func perfectMatching(mult [][]int) ([]int, bool) {
	b := len(mult)
	matchR := make([]int, b) // right vertex -> left vertex
	for i := range matchR {
		matchR[i] = -1
	}
	var try func(l int, seen []bool) bool
	try = func(l int, seen []bool) bool {
		for r := 0; r < b; r++ {
			if mult[l][r] > 0 && !seen[r] {
				seen[r] = true
				if matchR[r] == -1 || try(matchR[r], seen) {
					matchR[r] = l
					return true
				}
			}
		}
		return false
	}
	for l := 0; l < b; l++ {
		seen := make([]bool, b)
		if !try(l, seen) {
			return nil, false
		}
	}
	match := make([]int, b)
	for r, l := range matchR {
		match[l] = r
	}
	return match, true
}

// phaseIsIdentity reports whether every per-row (or per-column)
// permutation in the phase is the identity.
func phaseIsIdentity(rows [][]int) bool {
	for _, row := range rows {
		for j, v := range row {
			if v != j {
				return false
			}
		}
	}
	return true
}

// Steps returns the number of data-transfer steps the decomposition
// actually needs: identity phases are free. Row-local permutations cost
// 1 step; a transpose-like permutation costs 3.
func (ph *Phases) Steps() int {
	s := 0
	if !phaseIsIdentity(ph.Row1) {
		s++
	}
	if !phaseIsIdentity(ph.Col) {
		s++
	}
	if !phaseIsIdentity(ph.Row2) {
		s++
	}
	return s
}

// GlobalPermutations lifts the three phases to full permutations of the
// b*b node ids (row-major). Composing them in order reproduces the
// original permutation: Row1 then Col then Row2.
func (ph *Phases) GlobalPermutations() (row1, col, row2 permute.Permutation) {
	b := ph.B
	n := b * b
	row1 = make(permute.Permutation, n)
	col = make(permute.Permutation, n)
	row2 = make(permute.Permutation, n)
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			row1[r*b+c] = r*b + ph.Row1[r][c]
			row2[r*b+c] = r*b + ph.Row2[r][c]
			col[r*b+c] = ph.Col[c][r]*b + c
		}
	}
	// Each lifted phase must itself be a bijection of the n node ids, or
	// the Clos routing argument collapses.
	for _, p := range []permute.Permutation{row1, col, row2} {
		if err := p.Validate(); err != nil {
			panic(err)
		}
	}
	return row1, col, row2
}

// Compose returns the single permutation equal to applying the three
// phases in order; tests use it to verify Decompose.
func (ph *Phases) Compose() permute.Permutation {
	r1, c, r2 := ph.GlobalPermutations()
	return r1.Compose(c).Compose(r2)
}

// Validate checks the internal consistency of the phases: each row/col
// mapping must itself be a permutation of [0, b).
func (ph *Phases) Validate() error {
	check := func(kind string, rows [][]int) error {
		if len(rows) != ph.B {
			return fmt.Errorf("clos: %s has %d rows, want %d", kind, len(rows), ph.B)
		}
		for i, row := range rows {
			if err := permute.Permutation(row).Validate(); err != nil {
				return fmt.Errorf("clos: %s[%d]: %w", kind, i, err)
			}
		}
		return nil
	}
	if err := check("Row1", ph.Row1); err != nil {
		return err
	}
	if err := check("Col", ph.Col); err != nil {
		return err
	}
	return check("Row2", ph.Row2)
}
