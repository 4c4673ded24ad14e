package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/fft"
)

func TestAnalyticSignalRealPartIsInput(t *testing.T) {
	x := twoTone(1024, 100, 300, 4096)
	a, err := AnalyticSignal(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(real(a[i])-x[i]) > 1e-9 {
			t.Fatalf("real part differs at %d", i)
		}
	}
}

func TestEnvelopeOfAMSignal(t *testing.T) {
	// x(t) = (1 + 0.5 cos(2π fm t)) cos(2π fc t): the envelope recovers
	// the slow modulation.
	n := 4096
	rate := 4096.0
	fc, fm := 512.0, 16.0
	x := make([]float64, n)
	wantEnv := make([]float64, n)
	for i := range x {
		ti := float64(i) / rate
		m := 1 + 0.5*math.Cos(2*math.Pi*fm*ti)
		x[i] = m * math.Cos(2*math.Pi*fc*ti)
		wantEnv[i] = m
	}
	env, err := Envelope(x)
	if err != nil {
		t.Fatal(err)
	}
	// Compare away from the edges (circular Hilbert edge effects).
	for i := n / 8; i < 7*n/8; i++ {
		if math.Abs(env[i]-wantEnv[i]) > 0.05 {
			t.Fatalf("envelope at %d: %v vs %v", i, env[i], wantEnv[i])
		}
	}
}

func TestAnalyticSignalOfCosineIsComplexExponential(t *testing.T) {
	n := 256
	k := 17
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * float64(k*i) / float64(n))
	}
	a, err := AnalyticSignal(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		want := cmplx.Exp(complex(0, 2*math.Pi*float64(k*i)/float64(n)))
		if cmplx.Abs(a[i]-want) > 1e-9 {
			t.Fatalf("analytic signal differs at %d: %v vs %v", i, a[i], want)
		}
	}
}

func TestAnalyticSignalValidates(t *testing.T) {
	if _, err := AnalyticSignal(make([]float64, 100)); err == nil {
		t.Fatal("non power of two accepted")
	}
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	n := 512
	x := twoTone(n, 32, 100, float64(n))
	plan, err := fft.NewRealPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	spec := plan.Forward(x)
	for _, bin := range []int{0, 16, 32, 100, 200} {
		p, err := Goertzel(x, bin)
		if err != nil {
			t.Fatal(err)
		}
		re, im := real(spec[bin]), imag(spec[bin])
		want := re*re + im*im
		if math.Abs(p-want) > 1e-6*(want+1) {
			t.Fatalf("bin %d: Goertzel %v vs FFT %v", bin, p, want)
		}
	}
}

func TestGoertzelValidates(t *testing.T) {
	if _, err := Goertzel(nil, 0); err == nil {
		t.Fatal("empty signal accepted")
	}
	if _, err := Goertzel(make([]float64, 8), 8); err == nil {
		t.Fatal("out-of-range bin accepted")
	}
}

func BenchmarkGoertzel4096(b *testing.B) {
	x := twoTone(4096, 440, 1000, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Goertzel(x, 220); err != nil {
			b.Fatal(err)
		}
	}
}
