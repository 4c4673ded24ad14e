// Quickstart: compute an FFT with the library's serial API and locate
// the dominant frequencies of a noisy two-tone signal.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"

	hypermeshfft "repro"
)

func main() {
	const (
		n          = 4096
		sampleRate = 8192.0 // Hz
		toneA      = 440.0  // Hz (A4)
		toneB      = 1250.0 // Hz
	)

	// Synthesize a noisy signal with two tones.
	rng := rand.New(rand.NewSource(42))
	signal := make([]float64, n)
	for i := range signal {
		t := float64(i) / sampleRate
		signal[i] = math.Sin(2*math.Pi*toneA*t) +
			0.5*math.Sin(2*math.Pi*toneB*t) +
			0.1*rng.NormFloat64()
	}

	// Plan once, transform; the real-input plan returns the n/2+1
	// non-redundant bins from a half-length complex transform.
	rplan, err := hypermeshfft.NewRealPlan(n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	power := rplan.PowerSpectrum(signal)

	// Report the two strongest bins (excluding DC).
	type peak struct {
		bin int
		p   float64
	}
	best := []peak{{}, {}}
	for k := 1; k < len(power); k++ {
		if power[k] > best[0].p {
			best[1] = best[0]
			best[0] = peak{k, power[k]}
		} else if power[k] > best[1].p {
			best[1] = peak{k, power[k]}
		}
	}
	fmt.Printf("%d-point FFT of a noisy two-tone signal (%.0f Hz sample rate)\n", n, sampleRate)
	for i, pk := range best {
		freq := float64(pk.bin) * sampleRate / n
		fmt.Printf("peak %d: bin %4d  ->  %7.1f Hz  (power %.1f)\n", i+1, pk.bin, freq, pk.p)
	}

	// Round-trip sanity check through the complex API.
	plan, err := hypermeshfft.NewPlan(n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	buf := make([]complex128, n)
	for i, v := range signal {
		buf[i] = complex(v, 0)
	}
	spec := plan.Forward(buf)
	back := plan.Backward(spec)
	maxErr := 0.0
	for i := range back {
		if d := math.Abs(real(back[i]) - signal[i]); d > maxErr {
			maxErr = d
		}
	}
	fmt.Printf("inverse-transform round-trip max error: %.2g\n", maxErr)
}
