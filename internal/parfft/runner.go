package parfft

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/fft"
	"repro/internal/layout"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/permute"
)

// Runner executes repeated distributed FFTs on one machine with one
// option set, building all per-run state once: the layout permutation
// and its inverse, the node-space bit-reversal routing permutation, the
// serial plan (twiddle tables), and the single butterfly callback the
// schedule reuses for every stage of every run. The package-level Run
// rebuilds all of this per call; long-lived callers simulating many
// transforms of one configuration (benchmark suites, sweeps, servers)
// should hold a Runner instead.
//
// A Runner is not safe for concurrent use: it wraps a machine whose
// register file every run overwrites.
type Runner struct {
	m    netsim.Machine[complex128]
	opts Options
	n    int
	logn int
	lay  layout.Layout
	plan *fft.Plan

	lp             permute.Permutation // element -> node
	elemAt         permute.Permutation // node -> element (inverse of lp)
	target         permute.Permutation // bit-reversal routing, node space
	identityLayout bool

	// stage is the butterfly stage currently executing; cb reads it, so
	// one closure serves every ExchangeCompute call instead of a fresh
	// capture per stage.
	stage int
	cb    func(self, partner complex128, node int) complex128

	out []complex128 // reusable output buffer for Run
}

// NewRunner validates the machine/options pair and precomputes the
// reusable schedule state.
func NewRunner(m netsim.Machine[complex128], opts Options) (*Runner, error) {
	n := m.Nodes()
	if !bits.IsPow2(n) {
		return nil, fmt.Errorf("parfft: node count %d is not a power of two", n)
	}
	logn := bits.Log2(n)
	lay := opts.Layout
	if lay == nil {
		lay = layout.RowMajor(n)
	}
	plans := opts.Plans
	if plans == nil {
		plans = fft.FreshSource()
	}
	psp := opts.Tracer.StartUnder("plan build").SetCat(obs.CatPlan)
	plan, err := plans.Plan(n)
	if err != nil {
		psp.End()
		return nil, err
	}
	if opts.Tracer != nil {
		psp.SetDetail(fmt.Sprintf("n=%d", n))
	}
	psp.End()

	lp := layout.Permutation(lay, n)
	if err := lp.Validate(); err != nil {
		return nil, fmt.Errorf("parfft: layout is not a bijection: %w", err)
	}
	r := &Runner{
		m:              m,
		opts:           opts,
		n:              n,
		logn:           logn,
		lay:            lay,
		plan:           plan,
		lp:             lp,
		elemAt:         lp.Inverse(),
		identityLayout: layout.IsIdentity(lay, n),
	}
	if !opts.SkipBitReversal {
		// Node-space permutation realizing the element-space reversal:
		// node lp[e] sends to node lp[rev(e)].
		r.target = make(permute.Permutation, n)
		for e := 0; e < n; e++ {
			r.target[lp[e]] = lp[bits.Reverse(e, logn)]
		}
	}
	r.cb = func(self, partner complex128, node int) complex128 {
		e := r.elemAt[node]
		st := r.stage
		if bits.Bit(e, st) == 0 {
			upper, _ := fft.Butterfly(self, partner, 1)
			return upper
		}
		j := bits.SetBit(e, st, 0)
		w := r.plan.Twiddle(r.plan.DIFTwiddleExponent(st, j))
		_, lower := fft.Butterfly(partner, self, w)
		return lower
	}
	return r, nil
}

// Run executes the FFT of x and returns the spectrum and step counts.
// The Result's Output slice is owned by the Runner and overwritten by
// the next Run call; copy it to retain the spectrum.
func (r *Runner) Run(x []complex128) (*Result, error) {
	if r.out == nil {
		r.out = make([]complex128, r.n)
	}
	return r.runInto(r.out, x)
}

// runInto executes one FFT, writing the natural-order spectrum into dst.
func (r *Runner) runInto(dst, x []complex128) (*Result, error) {
	n := r.n
	if len(x) != n {
		return nil, fmt.Errorf("parfft: input length %d != %d nodes", len(x), n)
	}
	m := r.m
	lp := r.lp

	// The span skeleton of one run: a root span, a child per schedule
	// phase, and — via the tracer's implicit parent — the machine-level
	// netsim spans nested under the phase that triggered them. Every
	// tracer call no-ops on the nil default, so the untraced path costs
	// one pointer comparison per phase and allocates nothing.
	tr := r.opts.Tracer
	run := tr.StartUnder("fft run").SetCat(obs.CatParfft)
	if tr != nil {
		run.SetDetail(fmt.Sprintf("n=%d on %s", n, m.Name()))
	}
	defer run.End()
	prevParent := tr.SetParent(run)
	defer tr.SetParent(prevParent)

	// Load: element e lives at node lp[e].
	lsp := tr.StartUnder("load").SetCat(obs.CatParfft)
	vals := m.Values()
	for e := 0; e < n; e++ {
		vals[lp[e]] = x[e]
	}
	m.ResetStats()
	lsp.End()

	// Butterfly ranks: DIF pairs element bit `stage` descending. Each
	// rank span carries the machine's step delta for that rank, so the
	// CatParfft step sum equals the CatNetsim one (and the machine's
	// Stats().Steps) even on machines whose exchange cost varies by bit.
	for stage := r.logn - 1; stage >= 0; stage-- {
		r.stage = stage
		var rsp *obs.Span
		var before int
		if tr != nil {
			before = m.Stats().Steps
			rsp = run.Child(fmt.Sprintf("butterfly rank %d", stage)).SetCat(obs.CatParfft)
			tr.SetParent(rsp)
		}
		err := m.ExchangeCompute(r.lay.NodeBit(stage), r.cb)
		if tr != nil {
			rsp.AddSteps(m.Stats().Steps - before).End()
			tr.SetParent(run)
		}
		if err != nil {
			return nil, err
		}
	}
	butterflySteps := m.Stats().Steps

	// The spectrum for element e now sits (bit-reversed) at node lp[e].
	// Bit-reverse in element space, then unload.
	reversalSteps := 0
	if !r.opts.SkipBitReversal {
		var bsp *obs.Span
		if tr != nil {
			bsp = run.Child("bit-reversal").SetCat(obs.CatParfft)
			tr.SetParent(bsp)
		}
		var err error
		switch mm := m.(type) {
		case *netsim.Hypercube[complex128]:
			if r.identityLayout {
				reversalSteps, err = mm.RouteBitReversal()
			} else {
				reversalSteps, err = mm.Route(r.target)
			}
		default:
			reversalSteps, err = m.Route(r.target)
		}
		if tr != nil {
			bsp.AddSteps(reversalSteps).End()
			tr.SetParent(run)
		}
		if err != nil {
			return nil, err
		}
	}

	usp := tr.StartUnder("unload").SetCat(obs.CatParfft)
	vals = m.Values()
	if r.opts.SkipBitReversal {
		for e := 0; e < n; e++ {
			dst[bits.Reverse(e, r.logn)] = vals[lp[e]]
		}
	} else {
		for e := 0; e < n; e++ {
			dst[e] = vals[lp[e]]
		}
	}
	usp.End()
	return &Result{
		Output:           dst,
		ButterflySteps:   butterflySteps,
		BitReversalSteps: reversalSteps,
		ComputeSteps:     m.Stats().ComputeSteps,
	}, nil
}
