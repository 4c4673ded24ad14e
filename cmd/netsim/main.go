// Command netsim runs one word-level simulation scenario on a chosen
// network and prints the measured step counts and statistics.
//
// Usage examples:
//
//	netsim -net hypermesh -n 4096 -scenario fft
//	netsim -net mesh -wrap=false -n 1024 -scenario bitreversal
//	netsim -net hypercube -n 4096 -scenario random -seed 7
//	netsim -net mesh -n 256 -scenario bitonic
//	netsim -net hypermesh -n 4096 -scenario fft2d
//	netsim -net hypercube -n 1024 -scenario valiant
//	netsim -net mesh -n 256 -scenario traffic
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bitonic"
	"repro/internal/fft"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/roofline"
	"repro/internal/parfft"
	"repro/internal/permute"
	"repro/internal/report"
)

func main() {
	network := flag.String("net", "hypermesh", "network: mesh, hypercube, hypermesh, karyn (8-ary)")
	n := flag.Int("n", 4096, "number of processing elements (power of two; square for mesh/hypermesh)")
	wrap := flag.Bool("wrap", true, "mesh only: wraparound (torus) links")
	scenario := flag.String("scenario", "fft", "scenario: fft, fft2d, fourstep, blocked, bitreversal, random, valiant, deflect, bitonic, traffic")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "compute worker pool size (0 = GOMAXPROCS)")
	showSchedule := flag.Bool("schedule", false, "print the operation-level schedule: every machine operation with its step cost")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON span trace to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "netsim: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	err := run(os.Stdout, *network, *n, *wrap, *scenario, *seed, *workers, *showSchedule, *traceOut)

	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "netsim: memprofile: %v\n", ferr)
		} else {
			runtime.GC()
			if werr := pprof.WriteHeapProfile(f); werr != nil {
				fmt.Fprintf(os.Stderr, "netsim: memprofile: %v\n", werr)
			}
			f.Close()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
}

// writeChromeTrace exports the tracer's spans as Chrome trace_event
// JSON.
func writeChromeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// buildComplex builds the machine carrying complex samples.
func buildComplex(network string, n int, wrap bool, cfg netsim.Config) (netsim.Machine[complex128], error) {
	switch network {
	case "mesh":
		return netsim.NewMesh[complex128](isqrt(n), wrap, cfg)
	case "hypercube":
		return netsim.NewHypercube[complex128](log2(n), cfg)
	case "hypermesh":
		return netsim.NewHypermesh[complex128](isqrt(n), 2, cfg)
	case "karyn":
		dims := log2(n) / 3
		if dims < 1 || 1<<uint(3*dims) != n {
			return nil, fmt.Errorf("karyn needs n = 8^dims, got %d", n)
		}
		return netsim.NewKAryNCube[complex128](8, dims, cfg)
	default:
		return nil, fmt.Errorf("unknown network %q", network)
	}
}

// buildFloat builds the machine carrying sort keys.
func buildFloat(network string, n int, wrap bool, cfg netsim.Config) (netsim.Machine[float64], error) {
	switch network {
	case "mesh":
		return netsim.NewMesh[float64](isqrt(n), wrap, cfg)
	case "hypercube":
		return netsim.NewHypercube[float64](log2(n), cfg)
	case "hypermesh":
		return netsim.NewHypermesh[float64](isqrt(n), 2, cfg)
	default:
		return nil, fmt.Errorf("unknown network %q", network)
	}
}

// writeSchedule lists the machine operations the tracer saw, in the
// order they started: index, operation, detail and step cost.
func writeSchedule(w io.Writer, tr *obs.Tracer) {
	fmt.Fprintln(w, "\nschedule trace:")
	i := 0
	for _, s := range tr.Snapshot() {
		if s.Cat == obs.CatNetsim {
			fmt.Fprintf(w, "%4d  %-12s %-28s %d step(s)\n", i, s.Name, s.Detail, s.Steps)
			i++
		}
	}
}

// run executes one scenario and writes its report, and the schedule
// when asked for, to w.
func run(w io.Writer, network string, n int, wrap bool, scenario string, seed int64, workers int, showSchedule bool, traceOut string) error {
	rng := rand.New(rand.NewSource(seed))
	var tr *obs.Tracer
	if showSchedule || traceOut != "" {
		tr = obs.New()
	}
	cfg := netsim.Config{Workers: workers, Obs: tr}
	defer func() {
		if showSchedule {
			writeSchedule(w, tr)
		}
		if traceOut != "" {
			if err := writeChromeTrace(tr, traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "netsim: trace: %v\n", err)
			} else {
				fmt.Fprintf(w, "wrote span trace to %s (load in chrome://tracing or Perfetto)\n", traceOut)
			}
		}
	}()
	switch scenario {
	case "fft":
		m, err := buildComplex(network, n, wrap, cfg)
		if err != nil {
			return err
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		res, err := parfft.Run(m, x, parfft.Options{Tracer: tr})
		if err != nil {
			return err
		}
		diff := fft.MaxAbsDiff(res.Output, fft.MustPlan(n).Forward(x))
		st := m.Stats()
		t := report.New(fmt.Sprintf("%d-point distributed FFT on %s", n, m.Name()),
			"quantity", "value")
		t.MustAddRow("butterfly data-transfer steps", fmt.Sprintf("%d", res.ButterflySteps))
		t.MustAddRow("bit-reversal data-transfer steps", fmt.Sprintf("%d", res.BitReversalSteps))
		t.MustAddRow("total data-transfer steps", fmt.Sprintf("%d", res.TotalSteps()))
		t.MustAddRow("compute steps", fmt.Sprintf("%d", res.ComputeSteps))
		t.MustAddRow("payload bytes moved", fmt.Sprintf("%d", st.CommBytes()))
		t.MustAddRow("BSP lower bound (bytes)", fmt.Sprintf("%.0f", roofline.ButterflyBytes(n, n, netsim.WordBytes)))
		t.MustAddRow("comm roofline (achieved/optimal)", fmt.Sprintf("%.2fx", netsim.CommRoofline(n, st)))
		t.MustAddRow("max |error| vs serial FFT", fmt.Sprintf("%.3g", diff))
		return t.Render(w)

	case "bitreversal", "random":
		m, err := buildComplex(network, n, wrap, cfg)
		if err != nil {
			return err
		}
		var p permute.Permutation
		if scenario == "bitreversal" {
			p = permute.BitReversal(n)
		} else {
			p = permute.Random(n, rng)
		}
		vals := m.Values()
		for i := range vals {
			vals[i] = complex(float64(i), 0)
		}
		steps, err := m.Route(p)
		if err != nil {
			return err
		}
		for i, dst := range p {
			// Routing copies payloads verbatim, so the integer-valued
			// floats compare exactly; go through int to say so.
			if int(real(m.Values()[dst])) != i {
				return fmt.Errorf("misrouted packet: node %d", dst)
			}
		}
		s := m.Stats()
		t := report.New(fmt.Sprintf("%s permutation on %s (N = %d)", scenario, m.Name(), n),
			"quantity", "value")
		t.MustAddRow("data-transfer steps (makespan)", fmt.Sprintf("%d", steps))
		t.MustAddRow("total link traversals", fmt.Sprintf("%d", s.LinkTraversals))
		t.MustAddRow("max queue length", fmt.Sprintf("%d", s.MaxQueue))
		return t.Render(w)

	case "bitonic":
		m, err := buildFloat(network, n, wrap, cfg)
		if err != nil {
			return err
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		res, out, err := bitonic.Run(m, data, nil)
		if err != nil {
			return err
		}
		for i := 1; i < len(out); i++ {
			if out[i] < out[i-1] {
				return fmt.Errorf("output not sorted at %d", i)
			}
		}
		t := report.New(fmt.Sprintf("bitonic sort of %d keys on %s", n, m.Name()),
			"quantity", "value")
		t.MustAddRow("compare-exchange stages", fmt.Sprintf("%d", res.ComputeSteps))
		t.MustAddRow("data-transfer steps", fmt.Sprintf("%d", res.TransferSteps))
		t.MustAddRow("sorted", "yes (verified)")
		return t.Render(w)

	case "fft2d", "fourstep":
		m, err := buildComplex(network, n, wrap, cfg)
		if err != nil {
			return err
		}
		side := isqrt(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		t := report.New(fmt.Sprintf("%s on %s (N = %d)", scenario, m.Name(), n), "quantity", "value")
		if scenario == "fft2d" {
			res, err := parfft.Run2D(m, x, side, side)
			if err != nil {
				return err
			}
			p2d, err := fft.NewPlan2D(side, side)
			if err != nil {
				return err
			}
			want := make([]complex128, n)
			p2d.Transform(want, x)
			t.MustAddRow("butterfly data-transfer steps", fmt.Sprintf("%d", res.ButterflySteps))
			t.MustAddRow("reorder data-transfer steps", fmt.Sprintf("%d", res.ReorderSteps))
			t.MustAddRow("max |error| vs serial 2D FFT", fmt.Sprintf("%.3g", fft.MaxAbsDiff(res.Output, want)))
		} else {
			res, err := parfft.FourStep(m, x, side, side)
			if err != nil {
				return err
			}
			want := fft.MustPlan(n).Forward(x)
			t.MustAddRow("butterfly data-transfer steps", fmt.Sprintf("%d", res.ButterflySteps))
			t.MustAddRow("reorder data-transfer steps", fmt.Sprintf("%d", res.ReorderSteps))
			t.MustAddRow("max |error| vs serial FFT", fmt.Sprintf("%.3g", fft.MaxAbsDiff(res.Output, want)))
		}
		return t.Render(w)

	case "blocked":
		m, err := buildComplex(network, 256, wrap, cfg) // 256-PE machine
		if err != nil {
			return err
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		res, err := parfft.RunBlocked(m, x)
		if err != nil {
			return err
		}
		want := fft.MustPlan(n).Forward(x)
		t := report.New(fmt.Sprintf("blocked %d-point FFT on 256-PE %s", n, m.Name()), "quantity", "value")
		t.MustAddRow("block size", fmt.Sprintf("%d", n/256))
		t.MustAddRow("local butterfly stages", fmt.Sprintf("%d", res.LocalStages))
		t.MustAddRow("remote butterfly steps", fmt.Sprintf("%d", res.ButterflySteps))
		t.MustAddRow("bit-reversal steps", fmt.Sprintf("%d", res.BitReversalSteps))
		t.MustAddRow("max |error| vs serial FFT", fmt.Sprintf("%.3g", fft.MaxAbsDiff(res.Output, want)))
		return t.Render(w)

	case "valiant":
		if network != "hypercube" {
			return fmt.Errorf("valiant routing is a hypercube scenario")
		}
		h, err := netsim.NewHypercube[complex128](log2(n), cfg)
		if err != nil {
			return err
		}
		p := permute.Random(n, rng)
		for i := range h.Values() {
			h.Values()[i] = complex(float64(i), 0)
		}
		steps, err := h.RouteValiant(p, rng)
		if err != nil {
			return err
		}
		h2, err := netsim.NewHypercube[complex128](log2(n), netsim.Config{})
		if err != nil {
			return err
		}
		for i := range h2.Values() {
			h2.Values()[i] = complex(float64(i), 0)
		}
		greedy, err := h2.Route(p)
		if err != nil {
			return err
		}
		t := report.New(fmt.Sprintf("random permutation on %d-node hypercube", n), "router", "steps")
		t.MustAddRow("greedy e-cube", fmt.Sprintf("%d", greedy))
		t.MustAddRow("valiant two-phase", fmt.Sprintf("%d", steps))
		return t.Render(w)

	case "deflect":
		d, err := netsim.NewDeflectionMesh(isqrt(n))
		if err != nil {
			return err
		}
		p := permute.Random(n, rng)
		res, err := d.RoutePermutation(p)
		if err != nil {
			return err
		}
		t := report.New(fmt.Sprintf("deflection routing of a random permutation on %d-node torus", n),
			"quantity", "value")
		t.MustAddRow("cycles (makespan)", fmt.Sprintf("%d", res.Cycles))
		t.MustAddRow("total hops", fmt.Sprintf("%d", res.TotalHops))
		t.MustAddRow("deflections", fmt.Sprintf("%d", res.Deflections))
		return t.Render(w)

	case "traffic":
		opts := netsim.TrafficOptions{Rate: 0.2, Warmup: 200, Measure: 800, Seed: seed}
		var res *netsim.TrafficResult
		var err error
		switch network {
		case "mesh":
			res, err = netsim.NewMeshTraffic(isqrt(n), opts)
		case "hypercube":
			res, err = netsim.NewHypercubeTraffic(log2(n), opts)
		case "hypermesh":
			res, err = netsim.NewHypermeshTraffic(isqrt(n), opts)
		default:
			return fmt.Errorf("unknown network %q", network)
		}
		if err != nil {
			return err
		}
		t := report.New(fmt.Sprintf("uniform random traffic on %s (N = %d, rate %.2f)", network, n, opts.Rate),
			"quantity", "value")
		t.MustAddRow("delivered rate (pkts/node/step)", fmt.Sprintf("%.3f", res.DeliveredRate))
		t.MustAddRow("average latency (steps)", fmt.Sprintf("%.2f", res.AvgLatency))
		t.MustAddRow("max queue", fmt.Sprintf("%d", res.MaxQueue))
		t.MustAddRow("in flight at end", fmt.Sprintf("%d", res.InFlight))
		return t.Render(w)

	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}
}
