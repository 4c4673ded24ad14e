package hypermeshfft

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fft"
)

// tiny aliases keep the DSP test readable
var (
	mathSin = math.Sin
	mathPi  = math.Pi
)

func TestFacadeAnyPlan(t *testing.T) {
	p, err := NewAnyPlan(100)
	if err != nil {
		t.Fatal(err)
	}
	x := randomSignal(100, 20)
	if d := fft.MaxAbsDiff(p.Forward(x), DFT(x)); d > 1e-7 {
		t.Fatalf("AnyPlan differs from DFT by %g", d)
	}
}

func TestFacadeConvolution(t *testing.T) {
	a := []complex128{1, 2, 0, 0}
	b := []complex128{3, 4, 0, 0}
	out, err := Convolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{3, 10, 8, 0}
	if d := fft.MaxAbsDiff(out, want); d > 1e-9 {
		t.Fatalf("Convolve = %v", out)
	}
	lin, err := ConvolveLinear([]complex128{1, 1}, []complex128{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(lin) != 3 {
		t.Fatalf("linear length %d", len(lin))
	}
	poly, err := PolyMul([]float64{1, 1}, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(poly) != 3 || poly[1] > 1e-9 || poly[1] < -1e-9 {
		t.Fatalf("PolyMul = %v", poly)
	}
	corr, err := Correlate(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if real(corr[0]) <= 0 {
		t.Fatal("autocorrelation energy not positive")
	}
}

func TestFacadeAscendFamily(t *testing.T) {
	m, err := NewHypercubeMachineOf[int](6, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Values() {
		m.Values()[i] = 1
	}
	if err := AllReduce(m, func(a, b int) int { return a + b }); err != nil {
		t.Fatal(err)
	}
	if m.Values()[17] != 64 {
		t.Fatalf("AllReduce sum = %d", m.Values()[17])
	}
	if err := BroadcastFrom(m, 5); err != nil {
		t.Fatal(err)
	}

	sm, err := NewHypermeshMachineOf[ScanPair[int]](8, 2, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sm.Values() {
		sm.Values()[i] = ScanPair[int]{Prefix: 1}
	}
	if err := PrefixScan(sm, func(a, b int) int { return a + b }); err != nil {
		t.Fatal(err)
	}
	if sm.Values()[63].Prefix != 64 {
		t.Fatalf("scan tail = %d", sm.Values()[63].Prefix)
	}
}

func TestFacadeFourStep(t *testing.T) {
	n := 256
	x := randomSignal(n, 21)
	want := MustPlan(n).Forward(x)
	m, _ := NewHypermeshMachine(16, 2)
	res, err := FourStepFFT(m, x, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d := fft.MaxAbsDiff(res.Output, want); d > 1e-7 {
		t.Fatalf("four-step differs by %g", d)
	}
}

func TestFacadeDistributedBitonicSort(t *testing.T) {
	m, _ := NewMeshMachineOf[float64](8, true, SimConfig{})
	rng := rand.New(rand.NewSource(22))
	data := make([]float64, 64)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	res, out, err := DistributedBitonicSort(m, data, ShuffledRowMajor(64))
	if err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(out) {
		t.Fatal("not sorted")
	}
	if res.TransferSteps <= 0 {
		t.Fatal("no steps counted")
	}
}

func TestFacadeRoutingDisciplines(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h, _ := NewHypercubeMachineOf[int](6, SimConfig{})
	for i := range h.Values() {
		h.Values()[i] = i
	}
	p := BitReversal(64)
	if _, err := RouteValiant(h, p, rng); err != nil {
		t.Fatal(err)
	}
	d, err := NewDeflectionMesh(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RoutePermutation(p); err != nil {
		t.Fatal(err)
	}
	w, err := NewWormholeMesh(8, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RoutePermutation(p); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTracing(t *testing.T) {
	tr := NewTracer()
	m, err := NewHypermeshMachineOf[complex128](8, 2, SimConfig{Obs: tr})
	if err != nil {
		t.Fatal(err)
	}
	x := randomSignal(64, 24)
	if _, err := DistributedFFT(m, x, FFTOptions{}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	if got := tr.StepsByCat()["netsim"]; got != m.Stats().Steps {
		t.Fatalf("netsim spans %d steps, machine %d", got, m.Stats().Steps)
	}
}

func TestFacadeBlockedComparison(t *testing.T) {
	cmp, err := RunBlockedComparison(65536, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.StepRatioVsHypercube <= 1 {
		t.Fatalf("blocked ratio = %v", cmp.StepRatioVsHypercube)
	}
}

func TestFacadeBitonicSteps(t *testing.T) {
	steps, err := BitonicMeshSteps(4096, ShuffledRowMajor(4096))
	if err != nil {
		t.Fatal(err)
	}
	if steps != 417 {
		t.Fatalf("mesh bitonic steps = %d", steps)
	}
	if BitonicDirectSteps(4096) != 78 {
		t.Fatal("direct steps wrong")
	}
}

func TestFacadeDCT(t *testing.T) {
	d, err := NewDCTPlan(64)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 64)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, 64)
	d.Transform(y, x)
	if math.Abs(y[0]-128) > 1e-9 {
		t.Fatalf("DC bin = %v", y[0])
	}
}

func TestFacadeDistributed2DAndBlocked(t *testing.T) {
	x := randomSignal(256, 30)
	hm, _ := NewHypermeshMachine(16, 2)
	res2d, err := DistributedFFT2D(hm, x, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res2d.ReorderSteps != 2 {
		t.Fatalf("2D reorder steps = %d", res2d.ReorderSteps)
	}
	hm2, _ := NewHypermeshMachine(8, 2)
	blk, err := DistributedFFTBlocked(hm2, x) // 256 points on 64 PEs
	if err != nil {
		t.Fatal(err)
	}
	want := MustPlan(256).Forward(x)
	if d := fft.MaxAbsDiff(blk.Output, want); d > 1e-7 {
		t.Fatalf("blocked output differs by %g", d)
	}
}

func TestFacadeOmegaAndWafer(t *testing.T) {
	o, err := NewOmegaNetwork(64)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := o.Passable(BitReversal(64))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("bit reversal passed")
	}
	w, err := RunWaferComparison(WaferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w.MeshSpeedupVsHypermesh <= 1 {
		t.Fatal("wafer normalization should favour the mesh")
	}
}

func TestFacadeTraffic(t *testing.T) {
	opts := TrafficOptions{Rate: 0.05, Warmup: 50, Measure: 200, Seed: 1}
	mr, err := RunMeshTraffic(8, opts)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := RunHypermeshTraffic(8, opts)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := RunHypercubeTraffic(6, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hr.AvgLatency >= mr.AvgLatency {
		t.Fatal("hypermesh latency should beat the torus")
	}
	if cr.DeliveredRate <= 0 {
		t.Fatal("hypercube delivered nothing")
	}
}

func TestFacadeEmbeddings(t *testing.T) {
	cube := NewHypercube(8)
	maxDil, _ := EmbeddingDilation(cube, GrayRingIntoHypercube(8), RingEdges(256))
	if maxDil != 1 {
		t.Fatalf("Gray ring dilation = %d", maxDil)
	}
}

func TestFacadeDSPToolkit(t *testing.T) {
	// Exercise the full DSP surface through the facade.
	n := 2048
	x := make([]float64, n)
	for i := range x {
		x[i] = 2 * mathSin(2*mathPi*64*float64(i)/float64(n))
	}
	frames, err := Spectrogram(x, 256, 128, HannWindow)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("no spectrogram frames")
	}
	psd, err := PSD(x, 256, HammingWindow)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for k := range psd {
		if psd[k] > psd[peak] {
			peak = k
		}
	}
	if peak != 8 { // 64/2048*256
		t.Fatalf("PSD peak at %d, want 8", peak)
	}
	h, err := LowPassFIR(31, 0.5, BlackmanWindow)
	if err != nil {
		t.Fatal(err)
	}
	y, err := FIRFilter(x, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != n+30 {
		t.Fatalf("filtered length %d", len(y))
	}
	a, err := AnalyticSignal(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != n {
		t.Fatal("analytic length wrong")
	}
	env, err := Envelope(x)
	if err != nil {
		t.Fatal(err)
	}
	mid := env[n/2]
	if mid < 1.8 || mid > 2.2 {
		t.Fatalf("tone envelope %v, want ~2", mid)
	}
	p, err := Goertzel(x, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 {
		t.Fatal("Goertzel power not positive")
	}
	if math.Abs(RectangularWindow(4)[0]-1) > 1e-12 {
		t.Fatal("rectangular window wrong")
	}
}

func TestFacadeCongestionAndCrossover(t *testing.T) {
	res, err := AnalyzeCongestion(NewHypercube(6), BitReversal(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalHops == 0 {
		t.Fatal("no hops analyzed")
	}
	m, err := FindCrossoverVsMesh(10, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.N == 0 {
		t.Fatal("crossover not found")
	}
	c, err := FindCrossoverVsHypercube(5, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.N == 0 {
		t.Fatal("hypercube crossover not found")
	}
}

func TestFacadePlansAndMachines(t *testing.T) {
	if _, err := NewPlan(64); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan2D(8, 8); err != nil {
		t.Fatal(err)
	}
	rp, err := NewRealPlan(128)
	if err != nil {
		t.Fatal(err)
	}
	real64 := make([]float64, 128)
	for i := range real64 {
		real64[i] = float64(i % 5)
	}
	if got := len(rp.Forward(real64)); got != 65 {
		t.Fatalf("real plan bins %d", got)
	}
	mm, err := NewMeshMachine(8, true)
	if err != nil {
		t.Fatal(err)
	}
	if mm.Nodes() != 64 {
		t.Fatal("mesh machine size")
	}
	hc, err := NewHypercubeMachine(6)
	if err != nil {
		t.Fatal(err)
	}
	if hc.Nodes() != 64 {
		t.Fatal("hypercube machine size")
	}
	ka, err := NewKAryNCubeMachine(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ka.Nodes() != 4096 {
		t.Fatal("k-ary machine size")
	}
	kaOf, err := NewKAryNCubeMachineOf[int](4, 3, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if kaOf.Nodes() != 64 {
		t.Fatal("generic k-ary machine size")
	}
}

func TestFacadeGuestGraphs(t *testing.T) {
	if len(GridEdges(4, 4)) != 24 {
		t.Fatal("grid edges wrong")
	}
	if len(HypercubeGuestEdges(4)) != 32 {
		t.Fatal("hypercube guest edges wrong")
	}
	hm := NewHypermesh(8, 2)
	maxDil, _ := EmbeddingDilation(hm, GrayRingIntoHypercube(6), HypercubeGuestEdges(6))
	if maxDil > 2 {
		t.Fatalf("hypermesh guest dilation %d", maxDil)
	}
}
