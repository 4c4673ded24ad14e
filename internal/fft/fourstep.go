package fft

import "sync"

// Cache-blocked four-step (a.k.a. six-step) decomposition for large
// transforms. A length-n transform with n = n1*n2 is computed as
//
//	transpose -> n2 contiguous length-n1 FFTs -> twiddle by W_n^(j2*k1)
//	          -> transpose -> n1 contiguous length-n2 FFTs -> transpose
//
// so every FFT the machine actually executes runs over a contiguous
// ~sqrt(n) block that fits in cache, and every non-contiguous access
// pattern is confined to the three transposes, which are cache-blocked.
// Output is in natural order, matching Transform's contract. The row
// transforms recurse through Plan.Transform, so a transform too large
// for one decomposition level simply decomposes again.

// fourStepMin is the transform length at which Plan switches from the
// monolithic split-radix network to the four-step decomposition. The
// recursive split-radix network is itself cache-oblivious (sub-blocks
// become cache-resident after the first few ranks), so the transposes
// only pay for themselves once the streaming ranks dominate: measured
// on the fftbench host the decomposition still lost 8% at 2^22 and
// first won (by 7%) at 2^23, so the switch sits there. fftd caps
// transforms at 2^22, but AnyPlan's inner plan for every
// non-power-of-two length in (2^21, 2^22] is 2^23 long, so served
// Bluestein transforms of those lengths run this kernel twice each.
const fourStepMin = 1 << 23

// fourStepPlan holds the factorization state hung off a Plan when
// n >= fourStepMin. The scratch pool makes Transform allocation-free in
// steady state while staying safe for the shared plancache: concurrent
// transforms on one plan each draw their own buffer.
type fourStepPlan struct {
	n1, n2  int // n = n1*n2, both powers of two, n1 <= n2
	p1, p2  *Plan
	scratch sync.Pool // of *[]complex128 with length n
}

// newFourStepPlan factorizes n = n1*n2 with n1 = 2^floor(log2n/2).
func newFourStepPlan(n, log2n int) (*fourStepPlan, error) {
	n1 := 1 << uint(log2n/2)
	n2 := n / n1
	p1, err := NewPlan(n1)
	if err != nil {
		return nil, err
	}
	p2, err := NewPlan(n2)
	if err != nil {
		return nil, err
	}
	f := &fourStepPlan{n1: n1, n2: n2, p1: p1, p2: p2}
	f.scratch.New = func() any {
		b := make([]complex128, n)
		return &b
	}
	return f, nil
}

// transform computes the forward DFT of x in place, in natural order.
// p is the owning full-length plan, used only for its twiddle table.
func (f *fourStepPlan) transform(p *Plan, x []complex128) {
	//fftlint:ignore hotalloc pool.Get's New path allocates once per buffer, then reuses
	sp := f.scratch.Get().(*[]complex128)
	s := *sp
	n1, n2 := f.n1, f.n2
	// Step 1: s = transpose of x viewed as n1 x n2 (so s is n2 x n1 and
	// row j2 of s holds the decimated subsequence x[j2], x[j2+n2], ...).
	transposeBlocked(s, x, n1, n2)
	// Step 2: length-n1 FFT of each contiguous row of s.
	for r := 0; r < n2; r++ {
		row := s[r*n1 : (r+1)*n1]
		f.p1.Transform(row, row)
	}
	// Steps 3+4 fused: twiddle s[j2*n1+k1] by W_n^(j2*k1) while
	// transposing back into x, saving a full memory pass. Row k1 of x is
	// then contiguous in the second transform's input order.
	f.twiddleTranspose(p, x, s)
	// Step 5: length-n2 FFT of each contiguous row of x.
	for r := 0; r < n1; r++ {
		row := x[r*n2 : (r+1)*n2]
		f.p2.Transform(row, row)
	}
	// Step 6: x[k1*n2+k2] now holds X[k1 + n1*k2]; one last transpose
	// puts the spectrum in natural order — in place when the
	// factorization is square, via scratch otherwise.
	if n1 == n2 {
		transposeSquareInPlace(x, n1)
	} else {
		transposeBlocked(s, x, n1, n2)
		copy(x, s)
	}
	f.scratch.Put(sp)
}

// twiddleTranspose writes dst[k1*n2+j2] = src[j2*n1+k1] * W_n^(j2*k1),
// tiled like transposeBlocked. Within a tile row the exponent steps by
// j2, so an add-and-fold replaces a multiply-and-mod per element.
func (f *fourStepPlan) twiddleTranspose(p *Plan, dst, src []complex128) {
	n1, n2, n := f.n1, f.n2, p.n
	tw := p.tw
	half := len(tw) // n/2
	for rb := 0; rb < n2; rb += transposeBlock {
		rmax := min(rb+transposeBlock, n2)
		for cb := 0; cb < n1; cb += transposeBlock {
			cmax := min(cb+transposeBlock, n1)
			// c outer / r inner makes the writes contiguous (a full
			// cache line per dst row segment); the strided reads hit
			// tile-resident lines. The exponent steps by c as r walks.
			for c := cb; c < cmax; c++ {
				e := (rb * c) % n
				drow := dst[c*n2:]
				for r := rb; r < rmax; r++ {
					v := src[r*n1+c]
					if e < half {
						v *= tw[e]
					} else {
						v *= -tw[e-half]
					}
					drow[r] = v
					e += c
					if e >= n {
						e -= n
					}
				}
			}
		}
	}
}

// transposeSquareInPlace transposes the n x n row-major matrix x in
// place by swapping tile pairs across the diagonal.
func transposeSquareInPlace(x []complex128, n int) {
	for rb := 0; rb < n; rb += transposeBlock {
		rmax := min(rb+transposeBlock, n)
		for cb := rb; cb < n; cb += transposeBlock {
			cmax := min(cb+transposeBlock, n)
			for r := rb; r < rmax; r++ {
				clo := cb
				if cb == rb {
					clo = r + 1
				}
				for c := clo; c < cmax; c++ {
					x[r*n+c], x[c*n+r] = x[c*n+r], x[r*n+c]
				}
			}
		}
	}
}

// transposeBlock is the tile edge for the cache-blocked transposes: 32
// complex128s per row is a 512-byte line run, and a 32x32 tile (16 KiB
// in + 16 KiB out) sits comfortably in L1.
const transposeBlock = 32

// transposeBlocked writes dst[c*rows+r] = src[r*cols+c] for the
// row-major rows x cols matrix src, walking tiles so both the reads and
// the writes stay within a cache-resident window. dst must not alias src.
func transposeBlocked(dst, src []complex128, rows, cols int) {
	for rb := 0; rb < rows; rb += transposeBlock {
		rmax := rb + transposeBlock
		if rmax > rows {
			rmax = rows
		}
		for cb := 0; cb < cols; cb += transposeBlock {
			cmax := cb + transposeBlock
			if cmax > cols {
				cmax = cols
			}
			// c outer / r inner: contiguous writes, tile-resident
			// strided reads.
			for c := cb; c < cmax; c++ {
				drow := dst[c*rows:]
				for r := rb; r < rmax; r++ {
					drow[r] = src[r*cols+c]
				}
			}
		}
	}
}
