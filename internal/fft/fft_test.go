package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randomSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func tol(n int) float64 { return 1e-9 * float64(n) }

func TestNewPlanRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) accepted", n)
		}
	}
}

func TestMustPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPlan(3) did not panic")
		}
	}()
	MustPlan(3)
}

func TestTransformMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		p := MustPlan(n)
		x := randomSignal(n, int64(n))
		got := p.Forward(x)
		want := DFT(x)
		if d := MaxAbsDiff(got, want); d > tol(n) {
			t.Errorf("n=%d: max diff vs DFT = %g", n, d)
		}
	}
}

func TestTransformMatchesRecursive(t *testing.T) {
	for _, n := range []int{2, 8, 128, 512} {
		p := MustPlan(n)
		x := randomSignal(n, int64(n)+100)
		if d := MaxAbsDiff(p.Forward(x), Recursive(x)); d > tol(n) {
			t.Errorf("n=%d: planned and recursive disagree by %g", n, d)
		}
	}
}

func TestRecursiveMatchesDFT(t *testing.T) {
	x := randomSignal(64, 7)
	if d := MaxAbsDiff(Recursive(x), DFT(x)); d > tol(64) {
		t.Fatalf("recursive vs DFT diff %g", d)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 16, 256, 4096} {
		p := MustPlan(n)
		x := randomSignal(n, int64(n)+200)
		y := p.Backward(p.Forward(x))
		if d := MaxAbsDiff(x, y); d > tol(n) {
			t.Errorf("n=%d: inverse round trip diff %g", n, d)
		}
	}
}

func TestIDFTMatchesInverse(t *testing.T) {
	n := 64
	p := MustPlan(n)
	x := randomSignal(n, 11)
	if d := MaxAbsDiff(p.Backward(x), IDFT(x)); d > tol(n) {
		t.Fatalf("plan inverse vs IDFT diff %g", d)
	}
}

func TestImpulseTransformsToConstant(t *testing.T) {
	n := 32
	p := MustPlan(n)
	x := make([]complex128, n)
	x[0] = 1
	y := p.Forward(x)
	for k, v := range y {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse bin %d = %v, want 1", k, v)
		}
	}
}

func TestSinusoidConcentratesInOneBin(t *testing.T) {
	n := 256
	p := MustPlan(n)
	freq := 37
	x := make([]complex128, n)
	for i := range x {
		angle := 2 * math.Pi * float64(freq) * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, angle))
	}
	y := p.Forward(x)
	for k, v := range y {
		want := 0.0
		if k == freq {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-8 {
			t.Fatalf("bin %d = %v, want magnitude %g", k, v, want)
		}
	}
}

func TestLinearity(t *testing.T) {
	n := 128
	p := MustPlan(n)
	x := randomSignal(n, 21)
	y := randomSignal(n, 22)
	a, b := complex(2.5, -1), complex(0, 3)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a*x[i] + b*y[i]
	}
	lhs := p.Forward(sum)
	fx, fy := p.Forward(x), p.Forward(y)
	rhs := make([]complex128, n)
	for i := range rhs {
		rhs[i] = a*fx[i] + b*fy[i]
	}
	if d := MaxAbsDiff(lhs, rhs); d > tol(n) {
		t.Fatalf("linearity violated by %g", d)
	}
}

func TestParseval(t *testing.T) {
	n := 512
	p := MustPlan(n)
	x := randomSignal(n, 31)
	y := p.Forward(x)
	var ex, ey float64
	for i := range x {
		ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		ey += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
	}
	ey /= float64(n)
	if math.Abs(ex-ey) > 1e-7*ex {
		t.Fatalf("Parseval violated: time %g vs freq %g", ex, ey)
	}
}

func TestTimeShiftPhaseRamp(t *testing.T) {
	// Shifting the signal circularly by s multiplies bin k by W_n^{ks}.
	n := 64
	p := MustPlan(n)
	x := randomSignal(n, 41)
	s := 5
	shifted := make([]complex128, n)
	for i := range x {
		shifted[i] = x[(i-s+n)%n]
	}
	fx := p.Forward(x)
	fs := p.Forward(shifted)
	for k := range fx {
		want := fx[k] * p.Twiddle(k*s)
		if cmplx.Abs(fs[k]-want) > tol(n) {
			t.Fatalf("shift theorem violated at bin %d", k)
		}
	}
}

func TestTransformNoReorderIsBitReversedSpectrum(t *testing.T) {
	n := 128
	p := MustPlan(n)
	x := randomSignal(n, 51)
	natural := p.Forward(x)
	raw := make([]complex128, n)
	p.TransformNoReorder(raw, x)
	p.BitReverseInPlace(raw)
	if d := MaxAbsDiff(raw, natural); d > tol(n) {
		t.Fatalf("no-reorder + bit reverse differs from Transform by %g", d)
	}
}

func TestTransformInPlaceAliasing(t *testing.T) {
	n := 64
	p := MustPlan(n)
	x := randomSignal(n, 61)
	want := p.Forward(x)
	buf := append([]complex128(nil), x...)
	p.Transform(buf, buf)
	if d := MaxAbsDiff(buf, want); d > tol(n) {
		t.Fatalf("in-place transform differs by %g", d)
	}
}

func TestTwiddleSymmetry(t *testing.T) {
	p := MustPlan(16)
	for k := 0; k < 64; k++ {
		want := cmplx.Exp(complex(0, -2*math.Pi*float64(k%16)/16))
		if cmplx.Abs(p.Twiddle(k)-want) > 1e-12 {
			t.Fatalf("Twiddle(%d) = %v, want %v", k, p.Twiddle(k), want)
		}
	}
}

func TestButterflyAlgebra(t *testing.T) {
	a, b := complex(1.0, 2.0), complex(-3.0, 0.5)
	w := complex(0, 1)
	up, lo := Butterfly(a, b, w)
	//fftlint:ignore floatcmp Butterfly is defined as exactly this expression; bit-equality pins the algebra
	if up != a+b {
		t.Fatal("upper output wrong")
	}
	//fftlint:ignore floatcmp Butterfly is defined as exactly this expression; bit-equality pins the algebra
	if lo != (a-b)*w {
		t.Fatal("lower output wrong")
	}
}

func TestDIFTwiddleExponentSchedule(t *testing.T) {
	// For n=8: stage 2 pairs (j, j+4) with exponent j for j in 0..3;
	// stage 1 pairs within halves with exponent 2*(j&1); stage 0 uses 0.
	p := MustPlan(8)
	if p.DIFTwiddleExponent(2, 3) != 3 {
		t.Fatal("stage 2 exponent wrong")
	}
	if p.DIFTwiddleExponent(1, 5) != 2 {
		t.Fatal("stage 1 exponent wrong")
	}
	if p.DIFTwiddleExponent(0, 6) != 0 {
		t.Fatal("stage 0 exponent wrong")
	}
}

func TestDIFTwiddleExponentPanicsOutOfRange(t *testing.T) {
	p := MustPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range stage")
		}
	}()
	p.DIFTwiddleExponent(3, 0)
}

func TestPowerSpectrumPeak(t *testing.T) {
	n := 1024
	p, err := NewRealPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	freq := 100
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(freq) * float64(i) / float64(n))
	}
	ps := p.PowerSpectrum(x)
	best := 0
	for k := range ps {
		if ps[k] > ps[best] {
			best = k
		}
	}
	if best != freq {
		t.Fatalf("power spectrum peak at %d, want %d", best, freq)
	}
}

// direct2D is the O(n^2) 2D DFT oracle.
func direct2D(x []complex128, rows, cols int) []complex128 {
	want := make([]complex128, rows*cols)
	for kr := 0; kr < rows; kr++ {
		for kc := 0; kc < cols; kc++ {
			var sum complex128
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					angle := -2 * math.Pi * (float64(kr*r)/float64(rows) + float64(kc*c)/float64(cols))
					sum += x[r*cols+c] * cmplx.Exp(complex(0, angle))
				}
			}
			want[kr*cols+kc] = sum
		}
	}
	return want
}

func TestPlan2DMatchesDirect2D(t *testing.T) {
	// 8x16 exercises the pure power-of-two path, 12x20 the Bluestein
	// fallback on both sides; both shapes are the satellite property
	// check that also pins the pencil decomposition (internal/pencil
	// asserts bit-identity against Plan2D on top of this oracle).
	for _, shape := range [][2]int{{8, 16}, {12, 20}} {
		rows, cols := shape[0], shape[1]
		p, err := NewPlan2D(rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		x := randomSignal(rows*cols, 81)
		got := make([]complex128, rows*cols)
		p.Transform(got, x)
		if d := MaxAbsDiff(got, direct2D(x, rows, cols)); d > 1e-7 {
			t.Fatalf("%dx%d transform differs from direct by %g", rows, cols, d)
		}
		p.Inverse(got, got)
		if d := MaxAbsDiff(got, x); d > 1e-9 {
			t.Fatalf("%dx%d round trip diff %g", rows, cols, d)
		}
	}
}

func TestPlan2DSlabStagesMatchWhole(t *testing.T) {
	// Running the row stage slab-by-slab and the column stage
	// band-by-band must reproduce Transform bit for bit: the pencil
	// decomposition's correctness rests on this equality.
	rows, cols := 12, 20
	p, err := NewPlan2D(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	x := randomSignal(rows*cols, 83)
	want := make([]complex128, rows*cols)
	p.Transform(want, x)

	got := make([]complex128, rows*cols)
	copy(got, x)
	// Row stage in two uneven slabs.
	p.TransformRows(got[:5*cols], false)
	p.TransformRows(got[5*cols:], false)
	// Column stage gathered band by band out of the row-major array,
	// exactly as the distributed transpose delivers it.
	colT, err := NewTransformer(rows)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]complex128, rows)
	for colLo := 0; colLo < cols; colLo += 7 {
		bw := cols - colLo
		if bw > 7 {
			bw = 7
		}
		band := make([]complex128, rows*bw)
		for r := 0; r < rows; r++ {
			copy(band[r*bw:(r+1)*bw], got[r*cols+colLo:r*cols+colLo+bw])
		}
		TransformColumns(colT, band, rows, bw, false, scratch)
		for r := 0; r < rows; r++ {
			copy(got[r*cols+colLo:r*cols+colLo+bw], band[r*bw:(r+1)*bw])
		}
	}
	for i := range got {
		//fftlint:ignore floatcmp the slab stages must be bit-identical to the whole-array path
		if got[i] != want[i] {
			t.Fatalf("slab-staged output differs from Transform at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestPlan3DMatchesDirect3D(t *testing.T) {
	nx, ny, nz := 4, 6, 8
	p, err := NewPlan3D(nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	x := randomSignal(nx*ny*nz, 87)
	got := make([]complex128, len(x))
	p.Transform(got, x)
	want := make([]complex128, len(x))
	for kx := 0; kx < nx; kx++ {
		for ky := 0; ky < ny; ky++ {
			for kz := 0; kz < nz; kz++ {
				var sum complex128
				for ix := 0; ix < nx; ix++ {
					for iy := 0; iy < ny; iy++ {
						for iz := 0; iz < nz; iz++ {
							angle := -2 * math.Pi * (float64(kx*ix)/float64(nx) + float64(ky*iy)/float64(ny) + float64(kz*iz)/float64(nz))
							sum += x[(ix*ny+iy)*nz+iz] * cmplx.Exp(complex(0, angle))
						}
					}
				}
				want[(kx*ny+ky)*nz+kz] = sum
			}
		}
	}
	if d := MaxAbsDiff(got, want); d > 1e-7 {
		t.Fatalf("3D transform differs from direct by %g", d)
	}
	p.Inverse(got, got)
	if d := MaxAbsDiff(got, x); d > 1e-9 {
		t.Fatalf("3D round trip diff %g", d)
	}
}

func TestPlan2DRoundTrip(t *testing.T) {
	p, err := NewPlan2D(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := randomSignal(128, 91)
	y := make([]complex128, 128)
	p.Transform(y, x)
	p.Inverse(y, y)
	if d := MaxAbsDiff(x, y); d > 1e-9 {
		t.Fatalf("2D round trip diff %g", d)
	}
	if r, c := p.Size(); r != 16 || c != 8 {
		t.Fatal("Size wrong")
	}
}

func TestPlan2DRejectsBadShapes(t *testing.T) {
	// Non-power-of-two sides are legal since the Bluestein fallback;
	// only non-positive sides are rejected.
	if _, err := NewPlan2D(0, 8); err == nil {
		t.Fatal("rows=0 accepted")
	}
	if _, err := NewPlan2D(8, -1); err == nil {
		t.Fatal("cols=-1 accepted")
	}
	if _, err := NewPlan2D(3, 8); err != nil {
		t.Fatalf("rows=3 rejected: %v", err)
	}
	if _, err := NewPlan3D(2, 0, 4); err == nil {
		t.Fatal("ny=0 accepted")
	}
}

func TestPlanConcurrentUse(t *testing.T) {
	// A Plan must be usable from many goroutines at once.
	n := 256
	p := MustPlan(n)
	x := randomSignal(n, 101)
	want := p.Forward(x)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				if d := MaxAbsDiff(p.Forward(x), want); d > 0 {
					done <- errResult(d)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errResult float64

func (e errResult) Error() string { return "concurrent transform mismatch" }

func BenchmarkFFT1024(b *testing.B) {
	p := MustPlan(1024)
	x := randomSignal(1024, 1)
	dst := make([]complex128, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transform(dst, x)
	}
}

func BenchmarkFFT4096(b *testing.B) {
	p := MustPlan(4096)
	x := randomSignal(4096, 1)
	dst := make([]complex128, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Transform(dst, x)
	}
}

func BenchmarkDFT256(b *testing.B) {
	x := randomSignal(256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DFT(x)
	}
}
