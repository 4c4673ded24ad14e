package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"repro/internal/bits"
	"repro/internal/fft"
	"repro/internal/load"
	"repro/internal/netsim"
	"repro/internal/parfft"
	"repro/internal/permute"
	"repro/internal/server"
)

// workload is one traffic mix against one fftd deployment.
type workload struct {
	name string
	// nodes is the number of fftd processes; more than one forms a ring
	// with node 0 as the entry point.
	nodes int
	// pencilMem is fftd's -pencil-mem; 0 leaves the default.
	pencilMem int64
	// rate > 0 makes the arrivals open-loop Poisson at this many requests
	// per second; 0 makes them closed-loop.
	rate    float64
	clients int
	// maxRate sizes a closed-loop trace: comfortably above the measured
	// completion rate, so the window closes before the requests run out.
	maxRate float64
	cohorts []load.Cohort
	// waves is the pencil wave count every fft2d answer must report.
	waves int
}

// The four workloads. Each stresses a different layer, and each has a
// partner that bypasses it: see README.md for why each was chosen.
var workloads = []workload{
	{
		name: "fft1d-open", nodes: 1, rate: 400, clients: 2,
		cohorts: load.DefaultCohorts(),
	},
	{
		name: "simulate", nodes: 1, clients: 2, maxRate: 1000,
		// Named: the default label (op/n) would merge the networks.
		cohorts: []load.Cohort{
			{Name: "fft/hypermesh/1024", Op: load.OpSimulate, N: 1024, Network: "hypermesh", Scenario: "fft", Weight: 1},
			{Name: "fft/hypercube/1024", Op: load.OpSimulate, N: 1024, Network: "hypercube", Scenario: "fft", Weight: 1},
			{Name: "fft/mesh/1024", Op: load.OpSimulate, N: 1024, Network: "mesh", Scenario: "fft", Weight: 1},
			{Name: "fft/hypermesh/4096", Op: load.OpSimulate, N: 4096, Network: "hypermesh", Scenario: "fft", Weight: 1},
			{Name: "random/hypermesh/1024", Op: load.OpSimulate, N: 1024, Network: "hypermesh", Scenario: "random", Weight: 1},
		},
	},
	{
		name: "fft2d-ring", nodes: 3, clients: 1, maxRate: 150, waves: 1,
		cohorts: []load.Cohort{
			{Op: load.OpFFT2D, Rows: 64, Cols: 64, Weight: 2},
			{Op: load.OpFFT2D, Rows: 48, Cols: 80, Weight: 1},
			// Half weight: the largest shape costs several times the others,
			// and at full weight a slow minute on 2 vCPUs completes under
			// 1,000 requests in 20 s.
			{Op: load.OpFFT2D, Rows: 128, Cols: 128, Weight: 0.5},
		},
	},
	{
		// A 4608-byte cap holds 5-column bands of 48 rows: 10 bands over
		// 3 nodes, so 4 waves, each re-reading the source.
		name: "fft2d-ooc", nodes: 3, pencilMem: 4608, clients: 1, maxRate: 150, waves: 4,
		cohorts: []load.Cohort{
			{Op: load.OpFFT2D, Rows: 48, Cols: 48, Weight: 1},
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// poolSize bounds the distinct transform payloads per cohort: the
	// trace cycles through them, so memory stays fixed however long the
	// window. Simulate requests are not pooled: each carries its own seed,
	// so the server's coalescing of identical in-flight queries never
	// engages.
	poolSize = 8
	// checkEvery: a timed run checks the answer of every 8th request;
	// warmup and the traced run check every answer.
	checkEvery = 8
	// warmupRequests follow one request per cohort in every set-up.
	warmupRequests = 64
	// ladderRequests is the traced run's request count (the first ones
	// of the trace), cut short when the run's time budget is spent.
	ladderRequests = 256
	// answerTol bounds |got - want| relative to the largest |want|; the
	// serving path is bit-identical to the library today, so this only
	// leaves room for a different but correct kernel.
	answerTol = 1e-9
)

// payload is one encoded request body together with everything needed
// to check its answer and to replay it down the traced ladder.
type payload struct {
	req  load.Request
	path string
	body []byte

	in     []complex128 // complex input (fft, ifft, fft_noreorder, fft2d)
	realIn []float64    // real input (real)
	want   []complex128 // expected output

	// Simulate: the expected answer; nil for a permutation whose
	// reference was not computed (the answer is not checked).
	sim *simAnswer
}

// simAnswer is what /v1/simulate must report for one request, from the
// same scenario run locally on buildMachine's machine. The server builds
// its machine in its own code, so the answer pins the machine's name and
// every cost counter as well as the steps: if the two constructions ever
// differ, the run fails instead of timing a different machine.
type simAnswer struct {
	steps   parfft.Result // fft scenario
	route   int           // random scenario
	machine string
	stats   netsim.Stats
}

// prepared is a workload's seeded trace, encoded before any clock runs.
type prepared struct {
	w     workload
	pay   []*payload      // per trace request; transform payloads are shared within a cohort
	first []*payload      // one payload per cohort, for warmup
	due   []time.Duration // open loop: each request's send time from the window start
}

// warmup lists every cohort once, then the first n requests.
func (p *prepared) warmup(n int) []*payload {
	return append(append([]*payload(nil), p.first...), p.pay[:min(n, len(p.pay))]...)
}

// prepare generates the workload's trace from seed and encodes every
// payload and reference answer.
func prepare(w workload, seed int64, window time.Duration) (*prepared, error) {
	n := int(w.maxRate * window.Seconds())
	kind := load.ArrivalClosed
	if w.rate > 0 {
		// Enough Poisson arrivals to cover the window with room to spare;
		// the ones due after it are dropped below.
		n = int(w.rate*window.Seconds()*1.3) + 64
		kind = load.ArrivalPoisson
	}
	n = max(n, ladderRequests)
	tr, err := load.Generate(load.Spec{
		SchemaVersion: load.SpecSchemaVersion,
		Name:          w.name,
		Seed:          seed,
		Arrival:       load.ArrivalSpec{Kind: kind, RatePerSec: w.rate, Concurrency: w.clients},
		Cohorts:       w.cohorts,
		Requests:      n,
	})
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w}
	reqs := tr.Requests
	if w.rate > 0 {
		for i, r := range tr.Requests {
			d := time.Duration(r.AtMicros) * time.Microsecond
			if d >= window && i >= ladderRequests {
				reqs = tr.Requests[:i]
				break
			}
			if d < window {
				p.due = append(p.due, d)
			}
		}
	}

	refs := newReferences()
	pools := map[string][]*payload{}
	seen := map[string]int{}
	p.pay = make([]*payload, len(reqs))
	for i, r := range reqs {
		k := seen[r.Cohort]
		seen[r.Cohort]++
		if r.Op != load.OpSimulate && k >= poolSize {
			p.pay[i] = pools[r.Cohort][k%poolSize]
			continue
		}
		// Simulate references are cheap for the fft scenario (one per
		// cohort) but a permutation's costs a route: compute those only
		// for the requests whose answers some run checks.
		checked := k == 0 || i < ladderRequests || i%checkEvery == 0
		pl, err := newPayload(r, refs, checked)
		if err != nil {
			return nil, err
		}
		p.pay[i] = pl
		if k == 0 {
			p.first = append(p.first, pl)
		}
		if r.Op != load.OpSimulate {
			pools[r.Cohort] = append(pools[r.Cohort], pl)
		}
	}
	return p, nil
}

// newPayload encodes r exactly as the load package would send it, then
// decodes the body back for the reference computation, so the reference
// sees the very samples the server receives.
func newPayload(r load.Request, refs *references, checked bool) (*payload, error) {
	pr, err := load.Prepare(&r)
	if err != nil {
		return nil, err
	}
	p := &payload{req: r, path: pr.Path, body: pr.Body}
	switch r.Op {
	case load.OpFFT, load.OpIFFT, load.OpFFTNoReorder, load.OpReal:
		var req server.FFTRequest
		if err := json.Unmarshal(pr.Body, &req); err != nil {
			return nil, fmt.Errorf("decode %s payload: %w", r.Cohort, err)
		}
		p.realIn = req.RealInput
		if r.Op != load.OpReal {
			p.in = toComplex(req.Input)
		}
		p.want, err = refs.transform1D(r.Op, p.in, p.realIn)
	case load.OpFFT2D:
		var req server.FFT2DRequest
		if err := json.Unmarshal(pr.Body, &req); err != nil {
			return nil, fmt.Errorf("decode %s payload: %w", r.Cohort, err)
		}
		p.in = toComplex(req.Input)
		var plan *fft.Plan2D
		if plan, err = fft.NewPlan2D(r.Rows, r.Cols); err == nil {
			p.want = make([]complex128, len(p.in))
			plan.Transform(p.want, p.in)
		}
	case load.OpSimulate:
		switch {
		case r.Scenario == "fft":
			p.sim, err = refs.simulateFFT(r.Network, r.N)
		case checked:
			p.sim, err = routeRandom(r.Network, r.N, r.Seed)
		}
	default:
		err = fmt.Errorf("op %q has no reference", r.Op)
	}
	if err != nil {
		return nil, fmt.Errorf("reference for %s: %w", r.Cohort, err)
	}
	return p, nil
}

func toComplex(xs []server.Complex) []complex128 {
	out := make([]complex128, len(xs))
	for i, x := range xs {
		out[i] = complex(x[0], x[1])
	}
	return out
}

// references memoizes plans and per-machine fft answers while a trace
// is prepared.
type references struct {
	plans map[string]any
	sims  map[string]*simAnswer
}

func newReferences() *references {
	return &references{plans: map[string]any{}, sims: map[string]*simAnswer{}}
}

func (rf *references) plan(kind string, n int, build func() (any, error)) (any, error) {
	key := fmt.Sprintf("%s/%d", kind, n)
	if p, ok := rf.plans[key]; ok {
		return p, nil
	}
	p, err := build()
	if err == nil {
		rf.plans[key] = p
	}
	return p, err
}

// transform1D computes the library's answer for one /v1/fft transform.
func (rf *references) transform1D(op load.Op, in []complex128, realIn []float64) ([]complex128, error) {
	if op == load.OpReal {
		p, err := rf.plan("real", len(realIn), func() (any, error) { return fft.NewRealPlan(len(realIn)) })
		if err != nil {
			return nil, err
		}
		rp := p.(*fft.RealPlan)
		return rp.ForwardInto(make([]complex128, rp.SpectrumLen()), realIn), nil
	}
	n := len(in)
	out := make([]complex128, n)
	if !bits.IsPow2(n) {
		p, err := rf.plan("any", n, func() (any, error) { return fft.NewAnyPlan(n) })
		if err != nil {
			return nil, err
		}
		if op == load.OpIFFT {
			p.(*fft.AnyPlan).Inverse(out, in)
		} else {
			p.(*fft.AnyPlan).Transform(out, in)
		}
		return out, nil
	}
	p, err := rf.plan("complex", n, func() (any, error) { return fft.NewPlan(n) })
	if err != nil {
		return nil, err
	}
	switch op {
	case load.OpIFFT:
		p.(*fft.Plan).Inverse(out, in)
	case load.OpFFTNoReorder:
		p.(*fft.Plan).TransformNoReorder(out, in)
	default:
		p.(*fft.Plan).Transform(out, in)
	}
	return out, nil
}

// simulateFFT runs the distributed FFT locally on the machine the server
// builds. Steps and counters do not depend on the samples, so one run
// per machine serves every request (hypermesh N=4096: 12 + 3 = 15, the
// paper's Table 2A).
func (rf *references) simulateFFT(network string, n int) (*simAnswer, error) {
	key := fmt.Sprintf("%s/%d", network, n)
	if a, ok := rf.sims[key]; ok {
		return a, nil
	}
	m, err := buildMachine(network, n)
	if err != nil {
		return nil, err
	}
	res, err := parfft.Run(m, make([]complex128, n), parfft.Options{})
	if err != nil {
		return nil, err
	}
	a := &simAnswer{
		steps:   parfft.Result{ButterflySteps: res.ButterflySteps, BitReversalSteps: res.BitReversalSteps},
		machine: m.Name(),
		stats:   m.Stats(),
	}
	rf.sims[key] = a
	return a, nil
}

// routeRandom routes the random permutation the server derives from seed.
func routeRandom(network string, n int, seed int64) (*simAnswer, error) {
	m, err := buildMachine(network, n)
	if err != nil {
		return nil, err
	}
	steps, err := m.Route(permute.Random(n, rand.New(rand.NewSource(seed))))
	if err != nil {
		return nil, err
	}
	return &simAnswer{route: steps, machine: m.Name(), stats: m.Stats()}, nil
}

// buildMachine builds the simulated machine /v1/simulate builds for a
// network name and node count (mesh with wrap links, the server default).
// internal/server keeps its own copy of this construction; simAnswer ties
// the two together.
func buildMachine(network string, n int) (netsim.Machine[complex128], error) {
	side := int(math.Round(math.Sqrt(float64(n))))
	switch network {
	case "mesh":
		return netsim.NewMesh[complex128](side, true, netsim.Config{})
	case "hypermesh":
		return netsim.NewHypermesh[complex128](side, 2, netsim.Config{})
	case "hypercube":
		return netsim.NewHypercube[complex128](bits.Log2(n), netsim.Config{})
	}
	return nil, fmt.Errorf("unknown network %q", network)
}

// answerStats accumulates what checked answers report; the simulate
// fields feed the netsim per-layer counts.
type answerStats struct {
	simAnswers   int
	simSteps     int64
	simCommBytes int64
}

// verify checks one response body against the payload's reference.
// acc, when non-nil, accumulates the answer's counts.
func (p *payload) verify(body []byte, w workload, acc *answerStats) error {
	switch p.req.Op {
	case load.OpSimulate:
		var resp server.SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode answer: %w", err)
		}
		if err := p.verifySimulate(&resp); err != nil {
			return err
		}
		if acc != nil {
			acc.simAnswers++
			acc.simSteps += int64(resp.TotalSteps)
			acc.simCommBytes += resp.Stats.CommBytes()
		}
		return nil
	case load.OpFFT2D:
		var resp server.FFT2DResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode answer: %w", err)
		}
		if resp.Workers != w.nodes || resp.Waves != w.waves {
			return fmt.Errorf("ran on %d workers in %d waves, want %d in %d", resp.Workers, resp.Waves, w.nodes, w.waves)
		}
		if w.nodes > 1 && resp.CommRooflineRatio < 1 {
			return fmt.Errorf("comm roofline ratio %g < 1", resp.CommRooflineRatio)
		}
		return p.verifyOutput(toComplex(resp.Output))
	default:
		var resp server.FFTResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode answer: %w", err)
		}
		if len(resp.Results) != 1 || resp.Results[0].Error != "" {
			return fmt.Errorf("want one result, got %+v", resp.Results)
		}
		return p.verifyOutput(toComplex(resp.Results[0].Output))
	}
}

func (p *payload) verifySimulate(resp *server.SimulateResponse) error {
	want := p.sim
	if want == nil {
		return nil
	}
	if resp.Machine != want.machine || resp.Stats != want.stats {
		return fmt.Errorf("%s ran on %q with %+v, want %q with %+v", p.req.Cohort,
			resp.Machine, resp.Stats, want.machine, want.stats)
	}
	if p.req.Scenario == "fft" {
		w := want.steps
		if resp.ButterflySteps != w.ButterflySteps || resp.BitReversalSteps != w.BitReversalSteps || resp.TotalSteps != w.TotalSteps() {
			return fmt.Errorf("%s steps %d+%d=%d, want %d+%d=%d", p.req.Cohort,
				resp.ButterflySteps, resp.BitReversalSteps, resp.TotalSteps,
				w.ButterflySteps, w.BitReversalSteps, w.TotalSteps())
		}
		if !(resp.MaxError <= 1e-9) {
			return fmt.Errorf("%s max_error %g > 1e-9", p.req.Cohort, resp.MaxError)
		}
		return nil
	}
	if resp.RouteSteps != want.route || resp.TotalSteps != want.route {
		return fmt.Errorf("%s route took %d steps, want %d", p.req.Cohort, resp.RouteSteps, want.route)
	}
	return nil
}

// verifyOutput compares a transform's samples with the reference.
func (p *payload) verifyOutput(got []complex128) error {
	if len(got) != len(p.want) {
		return fmt.Errorf("%s: %d output samples, want %d", p.req.Cohort, len(got), len(p.want))
	}
	scale := 1.0
	for _, v := range p.want {
		scale = max(scale, cmplx.Abs(v))
	}
	if d := fft.MaxAbsDiff(got, p.want); !(d <= answerTol*scale) {
		return fmt.Errorf("%s: output differs from the reference by %g", p.req.Cohort, d)
	}
	return nil
}
