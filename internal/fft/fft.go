// Package fft implements the radix-2 Cooley–Tukey fast Fourier
// transform: plan-based iterative transforms (decimation in time and in
// frequency), inverse and real-input transforms, 2D and 3D transforms
// and a naive DFT used as the correctness oracle.
//
// The decimation-in-frequency (DIF) form is the one whose data-flow
// graph appears in the paper's Fig. 3 — an SW-banyan/butterfly graph on
// natural-order input followed by a bit-reversal permutation of the
// output — and it is the schedule the distributed FFT in package parfft
// executes across processing elements.
//
//fftlint:hot
package fft

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/bits"
)

// Plan holds the precomputed twiddle factors for transforms of one size.
// A Plan is safe for concurrent use by multiple goroutines once created:
// every field is read-only after NewPlan except the four-step scratch
// pool, which hands each concurrent transform its own buffer.
type Plan struct {
	n     int
	log2n int
	// tw[k] = exp(-2*pi*i*k/n) for k in [0, n/2)
	tw []complex128
	// revPairs holds the flattened (i, j) index pairs with
	// j = reverse(i) > i, so BitReverseInPlace is a linear sweep over
	// precomputed swaps instead of recomputing log2(n) bit reversals per
	// element on every transform. Plans are shared through plancache, so
	// the table is built once per size per process, not once per run.
	revPairs []int32
	// four is non-nil for n >= fourStepMin: Transform/Inverse then run
	// the cache-blocked four-step decomposition instead of one monolithic
	// butterfly network (see fourstep.go).
	four *fourStepPlan
}

// NewPlan creates a transform plan for length n, which must be a power
// of two and at least 1.
func NewPlan(n int) (*Plan, error) {
	if !bits.IsPow2(n) {
		return nil, fmt.Errorf("fft: length %d is not a power of two", n)
	}
	p := &Plan{n: n, log2n: bits.Log2(n)}
	p.tw = make([]complex128, n/2)
	for k := range p.tw {
		angle := -2 * math.Pi * float64(k) / float64(n)
		p.tw[k] = cmplx.Exp(complex(0, angle))
	}
	p.revPairs = make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if j := bits.Reverse(i, p.log2n); j > i {
			p.revPairs = append(p.revPairs, int32(i), int32(j))
		}
	}
	if n >= fourStepMin {
		four, err := newFourStepPlan(n, p.log2n)
		if err != nil {
			return nil, err
		}
		p.four = four
	}
	return p, nil
}

// MustPlan is NewPlan for lengths known to be valid; it panics on error.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

// Stages returns log2(n), the number of butterfly stages.
func (p *Plan) Stages() int { return p.log2n }

// Twiddle returns W_n^k = exp(-2*pi*i*k/n) for any k >= 0 using the
// precomputed half-table and the symmetry W_n^{k+n/2} = -W_n^k.
func (p *Plan) Twiddle(k int) complex128 {
	if p.n == 1 {
		return 1
	}
	k %= p.n
	if k < p.n/2 {
		return p.tw[k]
	}
	return -p.tw[k-p.n/2]
}

// Butterfly computes the radix-2 DIF butterfly on the pair (a, b) with
// twiddle w: the "upper" output is a+b and the "lower" is (a-b)*w. Each
// node of the paper's Fig. 3 flow graph performs exactly this operation.
func Butterfly(a, b, w complex128) (upper, lower complex128) {
	return a + b, (a - b) * w
}

// DIFTwiddleExponent returns the twiddle exponent k (so that the factor
// is W_n^k) used by the DIF butterfly at stage `stage` applied to the
// element pair whose smaller index is j. Stages are numbered from
// log2(n)-1 (first executed, pairing elements n/2 apart) down to 0 (last
// executed, pairing adjacent elements); stage s pairs indices differing
// in bit s. This is the schedule shared by Transform and the distributed
// FFT, so both compute bit-identical results.
func (p *Plan) DIFTwiddleExponent(stage, j int) int {
	if stage < 0 || stage >= p.log2n {
		panic(fmt.Sprintf("fft: stage %d out of range [0,%d)", stage, p.log2n))
	}
	low := j & (1<<uint(stage) - 1)
	return low << uint(p.log2n-1-stage)
}

// checkLen panics unless the slice length matches the plan.
func (p *Plan) checkLen(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: slice length %d does not match plan length %d", len(x), p.n))
	}
}

// forwardDIF runs the decimation-in-frequency butterfly network in
// place. On return the spectrum is in bit-reversed order.
func (p *Plan) forwardDIF(x []complex128) {
	n := p.n
	for stage := p.log2n - 1; stage >= 0; stage-- {
		half := 1 << uint(stage)
		size := half * 2
		for start := 0; start < n; start += size {
			for j := start; j < start+half; j++ {
				l := j + half
				w := p.Twiddle(p.DIFTwiddleExponent(stage, j))
				x[j], x[l] = Butterfly(x[j], x[l], w)
			}
		}
	}
}

// BitReverseInPlace permutes x into bit-reversed index order — the
// terminal permutation of the paper's FFT flow graph — by sweeping the
// plan's precomputed swap table.
func (p *Plan) BitReverseInPlace(x []complex128) {
	p.checkLen(x)
	pairs := p.revPairs
	for k := 0; k+1 < len(pairs); k += 2 {
		i, j := pairs[k], pairs[k+1]
		x[i], x[j] = x[j], x[i]
	}
}

// transformInPlace computes the forward DFT of x in place, in natural
// order, picking the fastest kernel for the size: the cache-blocked
// four-step decomposition for n >= fourStepMin, otherwise the
// split-radix network followed by the bit-reversal permutation.
func (p *Plan) transformInPlace(x []complex128) {
	if p.four != nil {
		p.four.transform(p, x)
		return
	}
	p.forwardSplitRadix(x)
	p.BitReverseInPlace(x)
}

// Transform computes the forward DFT of src into dst (which may be the
// same slice): dst[k] = sum_j src[j] * exp(-2*pi*i*j*k/n). It selects
// the kernel by size — split-radix butterflies plus bit reversal in
// cache, the four-step decomposition beyond — all numerically
// equivalent (within rounding) to the paper's Fig. 3 flow graph, which
// TransformDIF still executes verbatim.
func (p *Plan) Transform(dst, src []complex128) {
	p.checkLen(src)
	p.checkLen(dst)
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	p.transformInPlace(dst)
}

// TransformDIF computes the forward DFT using the textbook radix-2
// decimation-in-frequency network followed by the bit-reversal
// permutation — butterfly for butterfly the schedule of the paper's
// Fig. 3, shared (via DIFTwiddleExponent/Twiddle/Butterfly) with the
// distributed FFT in package parfft. The simulated machines therefore
// produce output bit-identical to TransformDIF; Transform itself is
// free to pick a faster kernel and only agrees within rounding.
func (p *Plan) TransformDIF(dst, src []complex128) {
	p.checkLen(src)
	p.checkLen(dst)
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	p.forwardDIF(dst)
	p.BitReverseInPlace(dst)
}

// TransformNoReorder runs only the butterfly-network half of the flow
// graph, leaving the spectrum in bit-reversed order. Applications that
// consume the spectrum symmetrically (e.g. convolution followed by an
// inverse transform that accepts bit-reversed input) can skip the
// reorder entirely, which is the "if the bit-reversal is not needed, as
// in many applications" remark of §IV.A. The split-radix network keeps
// the same bit-reversed output layout as the radix-2 one, so this uses
// it at every size (the four-step path reorders implicitly and offers
// no shortcut here).
func (p *Plan) TransformNoReorder(dst, src []complex128) {
	p.checkLen(src)
	p.checkLen(dst)
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	p.forwardSplitRadix(dst)
}

// Inverse computes the inverse DFT of src into dst (which may alias):
// dst[j] = (1/n) sum_k src[k] * exp(+2*pi*i*j*k/n).
func (p *Plan) Inverse(dst, src []complex128) {
	p.checkLen(src)
	p.checkLen(dst)
	// Conjugate trick: IDFT(x) = conj(DFT(conj(x)))/n.
	for i, v := range src {
		dst[i] = cmplx.Conj(v)
	}
	p.transformInPlace(dst)
	scale := complex(1/float64(p.n), 0)
	for i, v := range dst {
		dst[i] = cmplx.Conj(v) * scale
	}
}

// Forward is a convenience wrapper allocating the output slice.
func (p *Plan) Forward(src []complex128) []complex128 {
	dst := make([]complex128, p.n)
	p.Transform(dst, src)
	return dst
}

// Backward is a convenience wrapper allocating the output slice.
func (p *Plan) Backward(src []complex128) []complex128 {
	dst := make([]complex128, p.n)
	p.Inverse(dst, src)
	return dst
}
