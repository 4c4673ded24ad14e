package fft

import (
	"math"
	"strings"
	"testing"
)

func TestRealPlanMatchesFullComplexTransform(t *testing.T) {
	for _, n := range []int{2, 4, 8, 64, 256, 1024} {
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.Len() != n {
			t.Fatalf("Len = %d", p.Len())
		}
		x := randomReal(n, int64(n)+2000)
		got := p.Forward(x)
		widened := make([]complex128, n)
		for i, v := range x {
			widened[i] = complex(v, 0)
		}
		want := MustPlan(n).Forward(widened)[:n/2+1]
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d bins vs %d", n, len(got), len(want))
		}
		for k := range want {
			if d := got[k] - want[k]; math.Hypot(real(d), imag(d)) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: %v vs %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestRealPlanRoundTrip(t *testing.T) {
	for _, n := range []int{4, 32, 512} {
		p, _ := NewRealPlan(n)
		x := randomReal(n, int64(n)+3000)
		y := p.Inverse(p.Forward(x))
		for i := range x {
			if math.Abs(y[i]-x[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: round trip differs at %d", n, i)
			}
		}
	}
}

func TestRealPlanNyquistAndDCAreReal(t *testing.T) {
	n := 128
	p, _ := NewRealPlan(n)
	x := randomReal(n, 4000)
	spec := p.Forward(x)
	if math.Abs(imag(spec[0])) > 1e-10 {
		t.Fatalf("DC bin not real: %v", spec[0])
	}
	if math.Abs(imag(spec[n/2])) > 1e-10 {
		t.Fatalf("Nyquist bin not real: %v", spec[n/2])
	}
}

func TestRealPlanRejectsBadLengths(t *testing.T) {
	if _, err := NewRealPlan(1); err == nil {
		t.Fatal("length 1 accepted")
	}
	if _, err := NewRealPlan(7); err == nil {
		t.Fatal("odd length accepted")
	}
	if _, err := NewRealPlan(12); err == nil {
		t.Fatal("non power of two accepted (half not power of two)")
	}
}

func BenchmarkRealPlan4096(b *testing.B) {
	p, _ := NewRealPlan(4096)
	x := randomReal(4096, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func TestRealPlanForwardIntoMatchesForward(t *testing.T) {
	for _, n := range []int{2, 4, 64, 1024} {
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := randomReal(n, int64(n)+4100)
		want := p.Forward(x)
		got := p.ForwardInto(make([]complex128, p.SpectrumLen()), x)
		//fftlint:ignore floatcmp Forward is a thin allocating wrapper over ForwardInto; bit-equality pins that
		if d := MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("n=%d: ForwardInto differs from Forward by %g", n, d)
		}
	}
}

func TestRealPlanInverseIgnoresNonRealEdgeBins(t *testing.T) {
	n := 64
	p, _ := NewRealPlan(n)
	x := randomReal(n, 4200)
	spec := p.Forward(x)
	// Contaminate the DC and Nyquist bins with imaginary residue, as
	// spectral processing with float noise would. InverseInto documents
	// that it ignores these parts, so the round trip must be unaffected.
	dirty := append([]complex128(nil), spec...)
	dirty[0] += complex(0, 0.25)
	dirty[n/2] += complex(0, -0.5)
	clean := p.Inverse(spec)
	got := p.Inverse(dirty)
	for i := range clean {
		if math.Abs(clean[i]-got[i]) > 1e-12 {
			t.Fatalf("sample %d: imag residue leaked into the signal (%g vs %g)", i, got[i], clean[i])
		}
	}
}

func TestRealPlanValidateSpectrum(t *testing.T) {
	n := 32
	p, _ := NewRealPlan(n)
	spec := p.Forward(randomReal(n, 4300))
	if err := p.ValidateSpectrum(spec); err != nil {
		t.Fatalf("genuine Forward output rejected: %v", err)
	}
	if err := p.ValidateSpectrum(spec[:n/2]); err == nil {
		t.Fatal("short spectrum accepted")
	}
	bad := append([]complex128(nil), spec...)
	bad[0] += complex(0, 1+real(spec[0]))
	if err := p.ValidateSpectrum(bad); err == nil {
		t.Fatal("non-real DC bin accepted")
	}
	bad = append(bad[:0], spec...)
	bad[n/2] += complex(0, 1+real(spec[n/2]))
	if err := p.ValidateSpectrum(bad); err == nil {
		t.Fatal("non-real Nyquist bin accepted")
	}
}

func TestRealPlanErrorMessageTellsTheTruth(t *testing.T) {
	// n=12 is even yet invalid (12/2=6 is not a power of two); the error
	// must say "power of two", not merely "even".
	_, err := NewRealPlan(12)
	if err == nil {
		t.Fatal("length 12 accepted")
	}
	if !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("error does not state the power-of-two requirement: %v", err)
	}
}
