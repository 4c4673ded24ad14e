// Package dsp builds practical signal-processing tools on the FFT
// library: window functions, Welch power-spectral-density estimation,
// spectrograms and FFT-based FIR filtering (overlap-add). These are the
// workloads the paper's introduction motivates for FFT supercomputers,
// included so that the repository is a usable DSP library and not only a
// complexity study.
package dsp

import (
	"fmt"
	"math"

	"repro/internal/fft"
)

// Window is a window function evaluated over n samples.
type Window func(n int) []float64

// Rectangular returns the all-ones window.
func Rectangular(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Hann returns the Hann (raised-cosine) window.
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// Hamming returns the Hamming window.
func Hamming(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// Blackman returns the Blackman window.
func Blackman(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		w[i] = 0.42 - 0.5*math.Cos(x) + 0.08*math.Cos(2*x)
	}
	return w
}

// DB converts a power ratio to decibels, clamping at a -300 dB floor.
func DB(power float64) float64 {
	if power <= 1e-30 {
		return -300
	}
	return 10 * math.Log10(power)
}

// Spectrogram computes the short-time power spectrum of x: frames of
// length fftSize advancing by hop samples, windowed by win, each
// transformed and reduced to fftSize/2+1 power bins. Frames that would
// run past the end of x are dropped.
func Spectrogram(x []float64, fftSize, hop int, win Window) ([][]float64, error) {
	if fftSize < 2 {
		return nil, fmt.Errorf("dsp: fft size %d < 2", fftSize)
	}
	if hop < 1 {
		return nil, fmt.Errorf("dsp: hop %d < 1", hop)
	}
	plan, err := fft.NewRealPlan(fftSize)
	if err != nil {
		return nil, err
	}
	w := win(fftSize)
	var out [][]float64
	frame := make([]float64, fftSize)
	for start := 0; start+fftSize <= len(x); start += hop {
		for i := 0; i < fftSize; i++ {
			frame[i] = x[start+i] * w[i]
		}
		out = append(out, plan.PowerSpectrum(frame))
	}
	return out, nil
}

// PSD estimates the power spectral density with Welch's method:
// overlapping windowed segments (50% overlap), averaged periodograms,
// normalized by the window energy. The result has fftSize/2+1 bins.
func PSD(x []float64, fftSize int, win Window) ([]float64, error) {
	frames, err := Spectrogram(x, fftSize, fftSize/2, win)
	if err != nil {
		return nil, err
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("dsp: signal shorter than one segment (%d < %d)", len(x), fftSize)
	}
	w := win(fftSize)
	var energy float64
	for _, v := range w {
		energy += v * v
	}
	out := make([]float64, len(frames[0]))
	for _, f := range frames {
		for i, p := range f {
			out[i] += p
		}
	}
	scale := 1 / (float64(len(frames)) * energy)
	for i := range out {
		out[i] *= scale
	}
	return out, nil
}

// FIRFilter applies an FIR filter (impulse response h) to x by
// overlap-add fast convolution and returns the filtered signal of
// length len(x) + len(h) - 1.
func FIRFilter(x, h []float64) ([]float64, error) {
	if len(h) == 0 || len(x) == 0 {
		return nil, fmt.Errorf("dsp: empty filter or signal")
	}
	// Pick an FFT size at least 4x the filter length (power of two).
	fftSize := 4
	for fftSize < 4*len(h) || fftSize < 64 {
		fftSize *= 2
	}
	block := fftSize - len(h) + 1
	plan, err := fft.NewPlan(fftSize)
	if err != nil {
		return nil, err
	}
	// Precompute the filter spectrum (bit-reversed order; the pointwise
	// product and the no-reorder inverse keep everything reorder-free).
	hPad := make([]complex128, fftSize)
	for i, v := range h {
		hPad[i] = complex(v, 0)
	}
	fh := make([]complex128, fftSize)
	plan.TransformNoReorder(fh, hPad)

	out := make([]float64, len(x)+len(h)-1)
	buf := make([]complex128, fftSize)
	for start := 0; start < len(x); start += block {
		end := start + block
		if end > len(x) {
			end = len(x)
		}
		for i := range buf {
			buf[i] = 0
		}
		for i := start; i < end; i++ {
			buf[i-start] = complex(x[i], 0)
		}
		plan.TransformNoReorder(buf, buf)
		for i := range buf {
			buf[i] *= fh[i]
		}
		plan.InverseNoReorder(buf, buf)
		for i := 0; i < fftSize && start+i < len(out); i++ {
			out[start+i] += real(buf[i])
		}
	}
	return out, nil
}

// LowPassFIR designs a windowed-sinc low-pass filter with the given
// cutoff (fraction of Nyquist, 0 < cutoff < 1) and odd tap count.
func LowPassFIR(taps int, cutoff float64, win Window) ([]float64, error) {
	if taps < 3 || taps%2 == 0 {
		return nil, fmt.Errorf("dsp: tap count %d must be odd and >= 3", taps)
	}
	if cutoff <= 0 || cutoff >= 1 {
		return nil, fmt.Errorf("dsp: cutoff %v out of (0,1)", cutoff)
	}
	h := make([]float64, taps)
	mid := taps / 2
	w := win(taps)
	sum := 0.0
	for i := range h {
		t := float64(i - mid)
		var v float64
		if i == mid { // t == 0 exactly when i == mid; compare the integers
			v = cutoff
		} else {
			v = math.Sin(math.Pi*cutoff*t) / (math.Pi * t)
		}
		h[i] = v * w[i]
		sum += h[i]
	}
	// Normalize to unit DC gain.
	for i := range h {
		h[i] /= sum
	}
	return h, nil
}
