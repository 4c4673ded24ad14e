package hypermeshfft

// This file extends the public facade with the library's second tier:
// arbitrary-length transforms, convolution, the ASCEND/DESCEND algorithm
// family, the four-step FFT, alternative routing disciplines and span
// tracing. The core surface lives in hypermeshfft.go.

import (
	"cmp"
	"math/rand"

	"repro/internal/ascend"
	"repro/internal/banyan"
	"repro/internal/bitonic"
	"repro/internal/congest"
	"repro/internal/convolution"
	"repro/internal/dsp"
	"repro/internal/embed"
	"repro/internal/fft"
	"repro/internal/layout"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/parfft"
	"repro/internal/perfmodel"
)

// ---- Arbitrary-length transforms ----

// AnyPlan computes DFTs of arbitrary (not only power-of-two) length via
// Bluestein's chirp-z algorithm.
type AnyPlan = fft.AnyPlan

// NewAnyPlan creates a DFT plan for any length n >= 1.
func NewAnyPlan(n int) (*AnyPlan, error) { return fft.NewAnyPlan(n) }

// ---- Convolution ----

// Convolve computes the circular convolution of two equal power-of-two
// length sequences using the no-bit-reversal FFT pipeline (§IV.A's
// "if the bit-reversal is not needed" application).
func Convolve(a, b []complex128) ([]complex128, error) { return convolution.Circular(a, b) }

// ConvolveLinear computes the linear convolution of two sequences of
// any lengths.
func ConvolveLinear(a, b []complex128) ([]complex128, error) { return convolution.Linear(a, b) }

// Correlate computes the circular cross-correlation of a with b.
func Correlate(a, b []complex128) ([]complex128, error) { return convolution.Correlate(a, b) }

// PolyMul multiplies two real-coefficient polynomials in O(n log n).
func PolyMul(a, b []float64) ([]float64, error) { return convolution.PolyMul(a, b) }

// ---- Generic machine constructors ----

// NewMeshMachineOf builds a side^2-node mesh/torus machine with an
// arbitrary register type (sort keys, reduction payloads, ...).
func NewMeshMachineOf[T any](side int, wrap bool, cfg SimConfig) (*netsim.Mesh[T], error) {
	return netsim.NewMesh[T](side, wrap, cfg)
}

// NewHypercubeMachineOf builds a 2^dims-node hypercube machine with an
// arbitrary register type.
func NewHypercubeMachineOf[T any](dims int, cfg SimConfig) (*netsim.Hypercube[T], error) {
	return netsim.NewHypercube[T](dims, cfg)
}

// NewHypermeshMachineOf builds a base^dims hypermesh machine with an
// arbitrary register type.
func NewHypermeshMachineOf[T any](base, dims int, cfg SimConfig) (*netsim.Hypermesh[T], error) {
	return netsim.NewHypermesh[T](base, dims, cfg)
}

// ---- ASCEND/DESCEND algorithms ----

// AllReduce combines every node's register with op (associative and
// commutative) and leaves the result everywhere, in log2(N) exchanges.
func AllReduce[T any](m netsim.Machine[T], op func(a, b T) T) error {
	return ascend.AllReduce(m, op)
}

// BroadcastFrom copies node root's register to every node in log2(N)
// exchanges.
func BroadcastFrom[T any](m netsim.Machine[T], root int) error {
	return ascend.Broadcast(m, root)
}

// ScanPair carries the running prefix and segment total for PrefixScan.
type ScanPair[T any] = ascend.ScanPair[T]

// PrefixScan computes the inclusive parallel prefix over node order
// with the associative operator op.
func PrefixScan[T any](m netsim.Machine[ScanPair[T]], op func(a, b T) T) error {
	return ascend.Scan(m, op)
}

// ---- Distributed algorithm variants ----

// FourStepFFT computes the N-point FFT with the transpose ("four-step")
// algorithm on an R x C tiling of the machine — the matrix-algorithm
// counterpoint to DistributedFFT's binary-exchange schedule.
func FourStepFFT(m netsim.Machine[complex128], x []complex128, rows, cols int) (*parfft.FourStepResult, error) {
	return parfft.FourStep(m, x, rows, cols)
}

// DistributedBitonicSort sorts one key per processing element and
// returns the step counts alongside the sorted keys.
func DistributedBitonicSort[T cmp.Ordered](m netsim.Machine[T], data []T, lay Layout) (*bitonic.Result, []T, error) {
	return bitonic.Run(m, data, lay)
}

// ---- Routing disciplines ----

// RouteValiant delivers a permutation on a hypercube machine with
// Valiant's two-phase randomized routing (paper reference [15]).
func RouteValiant[T any](m *netsim.Hypercube[T], p Permutation, rng *rand.Rand) (int, error) {
	return m.RouteValiant(p, rng)
}

// DeflectionMesh is the bufferless hot-potato torus router of the
// paper's reference [3].
type DeflectionMesh = netsim.DeflectionMesh

// NewDeflectionMesh builds a deflection-routed torus model.
func NewDeflectionMesh(side int) (*DeflectionMesh, error) { return netsim.NewDeflectionMesh(side) }

// WormholeMesh is the flit-level wormhole router used by the §III.E
// ablation.
type WormholeMesh = netsim.Wormhole

// NewWormholeMesh builds a wormhole-routed mesh model.
func NewWormholeMesh(side int, wrap bool, flits int) (*WormholeMesh, error) {
	return netsim.NewWormhole(side, wrap, flits)
}

// ---- Tracing ----

// Tracer collects timed spans. Passed as SimConfig.Obs it reports every
// machine operation once, with its step cost, as a span of category
// "netsim"; passed as FFTOptions.Tracer it adds the distributed FFT's
// phases.
type Tracer = obs.Tracer

// NewTracer creates an empty tracer.
func NewTracer() *Tracer { return obs.New() }

// ---- Extended performance model ----

// BlockedComparison is the N-samples-on-P-processors extension of the
// paper's step accounting.
type BlockedComparison = perfmodel.BlockedComparison

// RunBlockedComparison evaluates the blocked FFT step comparison for an
// N-point transform on P processors.
func RunBlockedComparison(n, p int) (*BlockedComparison, error) {
	return perfmodel.RunBlockedComparison(n, p)
}

// BitonicMeshSteps returns the closed-form mesh step count of the
// distributed bitonic sort under a layout (nil = row-major).
func BitonicMeshSteps(n int, lay Layout) (int, error) { return bitonic.MeshSteps(n, lay) }

// BitonicDirectSteps returns the hypercube/hypermesh bitonic step count.
func BitonicDirectSteps(n int) int { return bitonic.DirectSteps(n) }

// ShuffledRowMajor re-exports the layout constructor under its
// canonical name (ShuffledLayout is the historical alias).
func ShuffledRowMajor(n int) Layout { return layout.ShuffledRowMajor(n) }

// ---- More transforms ----

// DCTPlan computes type-II/III discrete cosine transforms via the FFT.
type DCTPlan = fft.DCTPlan

// NewDCTPlan creates a DCT plan for a power-of-two length.
func NewDCTPlan(n int) (*DCTPlan, error) { return fft.NewDCTPlan(n) }

// ---- More distributed transforms ----

// DistributedFFT2D computes a rows x cols two-dimensional DFT with one
// pixel per processing element (log N + 2 steps on a 2D hypermesh).
func DistributedFFT2D(m netsim.Machine[complex128], x []complex128, rows, cols int) (*parfft.Result2D, error) {
	return parfft.Run2D(m, x, rows, cols)
}

// DistributedFFTBlocked computes an N-point FFT on P < N processing
// elements with the block layout, measuring the blocked step counts of
// perfmodel.BlockedFFTSteps on a real schedule.
func DistributedFFTBlocked(m netsim.Machine[complex128], x []complex128) (*parfft.BlockedResult, error) {
	return parfft.RunBlocked(m, x)
}

// ---- Multistage networks ----

// OmegaNetwork is the log N-stage shuffle-exchange network of §II's
// multistage class, with destination-tag admissibility checking.
type OmegaNetwork = banyan.Omega

// NewOmegaNetwork builds an Omega network with n = 2^k ports.
func NewOmegaNetwork(n int) (*OmegaNetwork, error) { return banyan.NewOmega(n) }

// ---- Alternative normalizations and workloads ----

// WaferComparison is the equal-bisection (Dally) normalization of the
// §I caveat, under which the mesh wins.
type WaferComparison = perfmodel.WaferComparison

// WaferOptions parameterizes RunWaferComparison.
type WaferOptions = perfmodel.WaferOptions

// RunWaferComparison evaluates the FFT comparison under wafer-scale
// assumptions.
func RunWaferComparison(o WaferOptions) (*WaferComparison, error) {
	return perfmodel.RunWaferComparison(o)
}

// TrafficResult reports a uniform-random-traffic simulation.
type TrafficResult = netsim.TrafficResult

// TrafficOptions parameterizes random-traffic runs.
type TrafficOptions = netsim.TrafficOptions

// RunMeshTraffic, RunHypercubeTraffic and RunHypermeshTraffic simulate
// uniform random traffic (Dally's workload assumption) at the word
// level on the respective networks.
func RunMeshTraffic(side int, o TrafficOptions) (*TrafficResult, error) {
	return netsim.NewMeshTraffic(side, o)
}

// RunHypercubeTraffic simulates random traffic on a hypercube.
func RunHypercubeTraffic(dims int, o TrafficOptions) (*TrafficResult, error) {
	return netsim.NewHypercubeTraffic(dims, o)
}

// RunHypermeshTraffic simulates random traffic on a 2D hypermesh.
func RunHypermeshTraffic(base int, o TrafficOptions) (*TrafficResult, error) {
	return netsim.NewHypermeshTraffic(base, o)
}

// ---- Embeddings ----

// EmbeddingDilation returns the worst and average stretch of guest
// edges under a mapping into a host topology.
func EmbeddingDilation(host Topology, mapping []int, edges []embed.Edge) (max int, avg float64) {
	return embed.Dilation(host, mapping, edges)
}

// GrayRingIntoHypercube is the classic dilation-1 ring embedding.
func GrayRingIntoHypercube(k int) []int { return embed.GrayRingIntoHypercube(k) }

// GuestEdge is one edge of a guest graph being embedded.
type GuestEdge = embed.Edge

// RingEdges, GridEdges and HypercubeGuestEdges build common guest
// graphs for EmbeddingDilation.
func RingEdges(n int) []GuestEdge { return embed.RingEdges(n) }

// GridEdges returns the edges of an r x c grid guest graph.
func GridEdges(r, c int) []GuestEdge { return embed.Grid2DEdges(r, c) }

// HypercubeGuestEdges returns the edges of a k-dimensional hypercube
// guest graph.
func HypercubeGuestEdges(k int) []GuestEdge { return embed.HypercubeEdges(k) }

// ---- Signal-processing toolkit ----

// WindowFunc is a window function evaluated over n samples.
type WindowFunc = dsp.Window

// Window functions for Spectrogram, PSD and FIR design.
var (
	HannWindow        WindowFunc = dsp.Hann
	HammingWindow     WindowFunc = dsp.Hamming
	BlackmanWindow    WindowFunc = dsp.Blackman
	RectangularWindow WindowFunc = dsp.Rectangular
)

// Spectrogram computes the short-time power spectrum of x.
func Spectrogram(x []float64, fftSize, hop int, win WindowFunc) ([][]float64, error) {
	return dsp.Spectrogram(x, fftSize, hop, win)
}

// PSD estimates the power spectral density with Welch's method.
func PSD(x []float64, fftSize int, win WindowFunc) ([]float64, error) {
	return dsp.PSD(x, fftSize, win)
}

// FIRFilter applies an FIR filter by overlap-add fast convolution.
func FIRFilter(x, h []float64) ([]float64, error) { return dsp.FIRFilter(x, h) }

// LowPassFIR designs a windowed-sinc low-pass filter.
func LowPassFIR(taps int, cutoff float64, win WindowFunc) ([]float64, error) {
	return dsp.LowPassFIR(taps, cutoff, win)
}

// AnalyticSignal returns the Hilbert-transform analytic companion of x.
func AnalyticSignal(x []float64) ([]complex128, error) { return dsp.AnalyticSignal(x) }

// Envelope returns the instantaneous amplitude envelope of x.
func Envelope(x []float64) ([]float64, error) { return dsp.Envelope(x) }

// Goertzel evaluates the power of one DFT bin in O(n) time.
func Goertzel(x []float64, bin int) (float64, error) { return dsp.Goertzel(x, bin) }

// ---- Congestion analysis ----

// CongestionResult summarizes link loads of a routed permutation.
type CongestionResult = congest.Result

// AnalyzeCongestion tallies per-link load of routing p over the
// topology's deterministic shortest paths (mesh or hypercube).
func AnalyzeCongestion(t congest.Pather, p Permutation) (*CongestionResult, error) {
	return congest.Analyze(t, p)
}

// ---- Crossover analysis ----

// Crossover reports where the hypermesh's advantage first exceeds a
// threshold as N grows.
type Crossover = perfmodel.Crossover

// FindCrossoverVsMesh sweeps square sizes for the first N where the
// hypermesh beats the mesh by the threshold factor.
func FindCrossoverVsMesh(threshold float64, maxK int, prop float64) (*Crossover, error) {
	return perfmodel.FindCrossoverVsMesh(threshold, maxK, prop)
}

// FindCrossoverVsHypercube is FindCrossoverVsMesh against the hypercube.
func FindCrossoverVsHypercube(threshold float64, maxK int, prop float64) (*Crossover, error) {
	return perfmodel.FindCrossoverVsHypercube(threshold, maxK, prop)
}

// ---- More transform plans ----

// RealPlan computes real-input DFTs via a half-length complex
// transform.
type RealPlan = fft.RealPlan

// NewRealPlan creates a half-size real-input plan.
func NewRealPlan(n int) (*RealPlan, error) { return fft.NewRealPlan(n) }

// ---- k-ary n-cube machines ----

// NewKAryNCubeMachine builds a radix^dims torus machine (Dally's
// family) carrying complex samples.
func NewKAryNCubeMachine(radix, dims int) (*netsim.KAryNCube[complex128], error) {
	return netsim.NewKAryNCube[complex128](radix, dims, netsim.Config{})
}

// NewKAryNCubeMachineOf builds a radix^dims torus machine with an
// arbitrary register type.
func NewKAryNCubeMachineOf[T any](radix, dims int, cfg SimConfig) (*netsim.KAryNCube[T], error) {
	return netsim.NewKAryNCube[T](radix, dims, cfg)
}
