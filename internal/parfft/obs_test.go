package parfft

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// obsMachines builds one machine of every kind at 64 nodes, each
// reporting its operations to tr, so netsim-level and parfft-level
// span step accounting can be compared.
func obsMachines(t *testing.T, tr *obs.Tracer) map[string]netsim.Machine[complex128] {
	t.Helper()
	cfg := netsim.Config{Workers: 1, Obs: tr}
	mesh, err := netsim.NewMesh[complex128](8, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := netsim.NewHypercube[complex128](6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := netsim.NewHypermesh[complex128](8, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]netsim.Machine[complex128]{
		"mesh":      mesh,
		"hypercube": cube,
		"hypermesh": hm,
	}
}

// TestSpanStepsMatchRecorder checks the acceptance identity: for one
// run, the step costs attached to netsim spans, the step costs attached
// to parfft phase spans (ranks + bit-reversal), the machine's own step
// counter and the Result step counts all agree.
func TestSpanStepsMatchRecorder(t *testing.T) {
	for name := range obsMachines(t, nil) {
		t.Run(name, func(t *testing.T) {
			tr := obs.New()
			m := obsMachines(t, tr)[name]
			x := make([]complex128, m.Nodes())
			rng := rand.New(rand.NewSource(7))
			for i := range x {
				x[i] = complex(rng.Float64(), rng.Float64())
			}
			res, err := Run(m, x, Options{Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			byCat := tr.StepsByCat()
			if got, want := byCat[obs.CatNetsim], m.Stats().Steps; got != want {
				t.Errorf("netsim span steps = %d, machine steps = %d", got, want)
			}
			if got, want := byCat[obs.CatParfft], res.TotalSteps(); got != want {
				t.Errorf("parfft span steps = %d, result total = %d", got, want)
			}
			if got, want := m.Stats().Steps, res.TotalSteps(); got != want {
				t.Errorf("machine steps = %d, result total = %d", got, want)
			}
		})
	}
}

// TestSpanTreeShape checks that machine-level spans nest under the
// parfft phase that triggered them, and that every butterfly rank and
// the bit-reversal appear as distinct children of the run span.
func TestSpanTreeShape(t *testing.T) {
	tr := obs.New()
	m := obsMachines(t, tr)["hypercube"]
	x := make([]complex128, m.Nodes())
	for i := range x {
		x[i] = complex(float64(i), 0)
	}
	if _, err := Run(m, x, Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	byID := map[int]obs.SpanData{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var runID int
	ranks := 0
	sawReversal := false
	for _, s := range spans {
		if s.Name == "fft run" {
			runID = s.ID
		}
	}
	if runID == 0 {
		t.Fatal("no fft run span")
	}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "butterfly rank "):
			ranks++
			if s.Parent != runID {
				t.Errorf("%s parented under %d, want run span %d", s.Name, s.Parent, runID)
			}
		case s.Name == "bit-reversal":
			sawReversal = true
			if s.Parent != runID {
				t.Errorf("bit-reversal parented under %d, want run span %d", s.Parent, runID)
			}
		case s.Cat == obs.CatNetsim:
			parent, ok := byID[s.Parent]
			if !ok {
				t.Fatalf("netsim span %q has unknown parent %d", s.Name, s.Parent)
			}
			if parent.Cat != obs.CatParfft {
				t.Errorf("netsim span %q parent %q has cat %q, want parfft phase", s.Name, parent.Name, parent.Cat)
			}
		}
	}
	if want := 6; ranks != want {
		t.Errorf("saw %d butterfly rank spans, want %d", ranks, want)
	}
	if !sawReversal {
		t.Error("no bit-reversal span")
	}
	for _, s := range spans {
		if s.Duration < 0 {
			t.Errorf("span %q has negative duration", s.Name)
		}
	}
}

// TestNilTracerRunMatches checks Options.Tracer = nil changes nothing
// about the numeric result.
func TestNilTracerRunMatches(t *testing.T) {
	for name := range obsMachines(t, nil) {
		t.Run(name, func(t *testing.T) {
			x := make([]complex128, 64)
			for i := range x {
				x[i] = complex(float64(i%5), float64(i%3))
			}
			plain := obsMachines(t, nil)[name]
			traced := obsMachines(t, obs.New())[name]
			a, err := Run(plain, x, Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(traced, x, Options{Tracer: obs.New()})
			if err != nil {
				t.Fatal(err)
			}
			if a.TotalSteps() != b.TotalSteps() {
				t.Errorf("step counts diverge: %d vs %d", a.TotalSteps(), b.TotalSteps())
			}
			for i := range a.Output {
				//fftlint:ignore floatcmp traced and untraced runs execute the identical schedule; bit-equality pins that tracing never perturbs the data path
				if a.Output[i] != b.Output[i] {
					t.Fatalf("output %d diverges: %v vs %v", i, a.Output[i], b.Output[i])
				}
			}
		})
	}
}

// TestTracedRunnerReuse checks a Runner shared across runs keeps
// producing well-formed trees when the tracer accumulates several runs.
func TestTracedRunnerReuse(t *testing.T) {
	tr := obs.New()
	m := obsMachines(t, tr)["mesh"]
	r, err := NewRunner(m, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, m.Nodes())
	for i := range x {
		x[i] = complex(1, 0)
	}
	const runs = 3
	for i := 0; i < runs; i++ {
		if _, err := r.Run(x); err != nil {
			t.Fatal(err)
		}
	}
	roots := 0
	for _, s := range tr.Snapshot() {
		if s.Name == "fft run" {
			if s.Parent != 0 {
				t.Errorf("fft run span %d has parent %d, want root", s.ID, s.Parent)
			}
			roots++
		}
	}
	if roots != runs {
		t.Fatalf("saw %d run roots, want %d", roots, runs)
	}
}
