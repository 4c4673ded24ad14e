package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// RealPlan computes forward and inverse DFTs of real signals of length
// n using a single complex transform of length n/2 (the classic packing
// trick): the even samples become real parts and the odd samples
// imaginary parts, and a post-processing pass untangles the two
// half-spectra, which does half the work of a full-length complex
// transform of the widened signal. A RealPlan is safe for concurrent
// use: the only mutable state is the inverse scratch pool, which hands
// each caller its own buffer.
type RealPlan struct {
	n    int
	half *Plan
	// w[k] = exp(-2*pi*i*k/n) for k in [0, n/2)
	w []complex128
	// inv pools the n/2-length repacking buffer InverseInto needs, so
	// steady-state inverses allocate nothing.
	inv sync.Pool
}

// NewRealPlan creates a real-input plan for length n, which must be a
// power of two and at least 2 (the packed half-length transform requires
// n/2 to itself be a power of two, so merely even lengths do not work).
func NewRealPlan(n int) (*RealPlan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: real plan length %d must be a power of two and >= 2 (n/2 must be a power of two for the packed half transform)", n)
	}
	half, err := NewPlan(n / 2)
	if err != nil {
		return nil, fmt.Errorf("fft: real plan: %w", err)
	}
	p := &RealPlan{n: n, half: half, w: make([]complex128, n/2)}
	for k := range p.w {
		angle := -2 * math.Pi * float64(k) / float64(n)
		p.w[k] = cmplx.Exp(complex(0, angle))
	}
	p.inv.New = func() any {
		b := make([]complex128, n/2)
		return &b
	}
	return p, nil
}

// Len returns the signal length n.
func (p *RealPlan) Len() int { return p.n }

// SpectrumLen returns n/2 + 1, the number of non-redundant bins Forward
// produces and Inverse consumes.
func (p *RealPlan) SpectrumLen() int { return p.n/2 + 1 }

// Forward computes the n/2+1 non-redundant spectrum bins of the real
// signal x (the remainder follow from conjugate symmetry), allocating
// the output. Use ForwardInto to reuse a caller-owned buffer.
func (p *RealPlan) Forward(x []float64) []complex128 {
	out := make([]complex128, p.n/2+1)
	p.ForwardInto(out, x)
	return out
}

// ForwardInto computes the n/2+1 non-redundant spectrum bins of the
// real signal x into dst (which must have length n/2+1) and returns
// dst. It packs, transforms and untangles entirely inside dst, so it
// performs no allocation at all.
func (p *RealPlan) ForwardInto(dst []complex128, x []float64) []complex128 {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: real plan length mismatch %d vs %d", len(x), p.n))
	}
	h := p.n / 2
	if len(dst) != h+1 {
		panic(fmt.Sprintf("fft: real plan forward wants %d bins of output, got %d", h+1, len(dst)))
	}
	// Pack even samples into real parts, odd into imaginary parts.
	z := dst[:h]
	for i := 0; i < h; i++ {
		z[i] = complex(x[2*i], x[2*i+1])
	}
	p.half.Transform(z, z)
	// Untangle in place: with E[k] and O[k] the DFTs of the even and odd
	// subsequences, Z[k] = E[k] + i O[k] and conjugate symmetry gives
	// E[k] = (Z[k] + conj(Z[h-k]))/2, O[k] = (Z[k] - conj(Z[h-k]))/(2i),
	// out[k] = E[k] + W_n^k O[k]. The bins (k, h-k) consume exactly the
	// packed pair (Z[k], Z[h-k]), so the sweep proceeds pairwise from
	// both ends and never reads a slot it has already written.
	z0 := z[0]
	for k := 1; k < h-k; k++ {
		zk, zc := z[k], cmplx.Conj(z[h-k])
		e := (zk + zc) / 2
		o := (zk - zc) / complex(0, 2)
		outK := e + p.twiddle(k)*o
		// The mirror bin h-k swaps the roles of the pair.
		zk, zc = z[h-k], cmplx.Conj(z[k])
		e = (zk + zc) / 2
		o = (zk - zc) / complex(0, 2)
		dst[k] = outK
		dst[h-k] = e + p.twiddle(h-k)*o
	}
	if h >= 2 {
		// Middle bin k = h/2 pairs with itself.
		zk := z[h/2]
		zc := cmplx.Conj(zk)
		e := (zk + zc) / 2
		o := (zk - zc) / complex(0, 2)
		dst[h/2] = e + p.twiddle(h/2)*o
	}
	// DC and Nyquist both derive from Z[0] alone; both are purely real.
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[h] = complex(real(z0)-imag(z0), 0)
	return dst
}

// PowerSpectrum returns |X[k]|^2 for the n/2+1 non-redundant bins of
// the real signal x — the quantity the quickstart example plots.
func (p *RealPlan) PowerSpectrum(x []float64) []float64 {
	spec := p.Forward(x)
	out := make([]float64, len(spec))
	for i, v := range spec {
		re, im := real(v), imag(v)
		out[i] = re*re + im*im
	}
	return out
}

// twiddle returns W_n^k for k in [0, n/2].
func (p *RealPlan) twiddle(k int) complex128 {
	if k == p.n/2 {
		return -1
	}
	return p.w[k]
}

// ValidateSpectrum reports whether spec is a plausible Forward output:
// it must hold exactly n/2+1 bins, and the DC and Nyquist bins must be
// (numerically) real — for a real signal both are pure sums of real
// samples, so a materially imaginary value means the spectrum was not
// produced by a real transform and Inverse would silently misinterpret
// it.
func (p *RealPlan) ValidateSpectrum(spec []complex128) error {
	h := p.n / 2
	if len(spec) != h+1 {
		return fmt.Errorf("fft: real spectrum wants %d bins, got %d", h+1, len(spec))
	}
	if im := imag(spec[0]); math.Abs(im) > 1e-9*(1+cmplx.Abs(spec[0])) {
		return fmt.Errorf("fft: real spectrum DC bin has imaginary part %g (must be real)", im)
	}
	if im := imag(spec[h]); math.Abs(im) > 1e-9*(1+cmplx.Abs(spec[h])) {
		return fmt.Errorf("fft: real spectrum Nyquist bin has imaginary part %g (must be real)", im)
	}
	return nil
}

// Inverse reconstructs the real signal from its n/2+1 non-redundant
// bins, inverting Forward and allocating the output. Use InverseInto to
// reuse a caller-owned buffer, and ValidateSpectrum to reject malformed
// spectra up front.
func (p *RealPlan) Inverse(spec []complex128) []float64 {
	out := make([]float64, p.n)
	p.InverseInto(out, spec)
	return out
}

// InverseInto reconstructs the real signal from its n/2+1 non-redundant
// bins into dst (length n) and returns dst. The imaginary parts of the
// DC and Nyquist bins are ignored: Forward always produces them real,
// and any residue there (e.g. float noise from spectral processing)
// cannot be represented in a real signal. Callers that would rather
// reject such input than ignore it should run ValidateSpectrum first.
// Steady-state calls allocate nothing: the repacking buffer comes from
// a per-plan pool.
func (p *RealPlan) InverseInto(dst []float64, spec []complex128) []float64 {
	h := p.n / 2
	if len(spec) != h+1 {
		panic(fmt.Sprintf("fft: real plan inverse wants %d bins, got %d", h+1, len(spec)))
	}
	if len(dst) != p.n {
		panic(fmt.Sprintf("fft: real plan inverse wants %d samples of output, got %d", p.n, len(dst)))
	}
	//fftlint:ignore hotalloc pool.Get's New path allocates once per buffer, then reuses
	zp := p.inv.Get().(*[]complex128)
	z := *zp
	// Repack the half-length complex spectrum Z[k] = E[k] + i O[k],
	// inverting Forward's untangling: E[k] = (X[k] + conj(X[h-k]))/2 and
	// O[k] = (X[k] - conj(X[h-k])) / (2 W_n^k). Only k = 0 touches the
	// DC and Nyquist bins, whose imaginary parts are dropped (see above).
	x0 := complex(real(spec[0]), 0)
	xn := complex(real(spec[h]), 0)
	z[0] = (x0+xn)/2 + complex(0, 1)*(x0-xn)/2
	for k := 1; k < h; k++ {
		xk := spec[k]
		xc := cmplx.Conj(spec[h-k])
		e := (xk + xc) / 2
		o := (xk - xc) / (2 * p.twiddle(k))
		z[k] = e + complex(0, 1)*o
	}
	p.half.Inverse(z, z)
	for i := 0; i < h; i++ {
		dst[2*i] = real(z[i])
		dst[2*i+1] = imag(z[i])
	}
	p.inv.Put(zp)
	return dst
}
