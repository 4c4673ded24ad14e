// Command fftperf is the repository's end-to-end benchmark. For each
// workload it starts real fftd processes on loopback, drives a seeded
// traffic mix at them from this one process, checks the answers, and
// prints every end-to-end metric by name with its unit. A traced run
// (-trace 1) then sends the same requests down a ladder of in-process
// entry points, from the socket to the kernel, and prints each layer's
// self time; the spans go to a Chrome trace file.
//
// Run it through run.sh, which builds fftd and fftperf from the
// checkout first:
//
//	bash cmd/fftperf/run.sh --workload fft1d-open --seed 1 --seconds 20 --trace 0
//	bash cmd/fftperf/run.sh --seed 1     # every workload in turn
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 8012, "failed": 0, "metrics": {"latency_p50_ms": {"value": 1.83, "unit": "ms"}, ...}}
//
// with the end-to-end metrics, or with -trace 1 the per-layer ones. See
// README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "all", "workload to run: fft1d-open, simulate, fft2d-ring, fft2d-ooc or all")
	seed := flag.Int64("seed", 1, "seed of the generated traffic")
	seconds := flag.Int("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced ladder run and reports per-layer metrics")
	fftd := flag.String("fftd", ".bench_build/fftperf/fftd", "fftd binary to benchmark")
	spans := flag.String("spans", ".bench_build/fftperf", "directory for the traced run's Chrome span files")
	flag.Parse()

	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	}
	if len(selected) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "fftperf: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	cfg := runConfig{
		seed:         *seed,
		window:       window,
		traced:       *trace == 1,
		fftd:         *fftd,
		spans:        *spans,
		fleets:       5,
		ladderN:      ladderRequests,
		ladderBudget: window,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Stdout, selected, cfg)
	stop()
	os.Exit(code)
}

// run measures each selected workload and prints its report. It returns
// the process exit code: 1 when a run failed or an answer was wrong.
func run(ctx context.Context, out io.Writer, selected []workload, cfg runConfig) int {
	fmt.Fprintf(out, "# fftperf seed=%d seconds=%g trace=%v num_cpu=%d gomaxprocs=%d go=%s commit=%s\n",
		cfg.seed, cfg.window.Seconds(), cfg.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	code := 0
	for _, w := range selected {
		res, err := runWorkload(ctx, w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fftperf: %s: %v\n", w.name, err)
			return 1
		}
		if err := report(out, res, cfg.traced); err != nil {
			fmt.Fprintf(os.Stderr, "fftperf: %v\n", err)
			return 1
		}
		if res.wrong > 0 {
			fmt.Fprintf(os.Stderr, "fftperf: %s: %d wrong answers, first: %v\n", w.name, res.wrong, res.firstWrong)
			code = 1
		}
	}
	return code
}

// report prints one workload's metrics, one per line, then the result
// line: the end-to-end metrics, or the per-layer ones for a traced run.
func report(out io.Writer, res *result, traced bool) error {
	fmt.Fprintf(out, "# %s: %d attempted, %d failed, %d wrong\n", res.w.name, res.attempted, res.failed, res.wrong)
	for _, m := range res.endToEnd {
		fmt.Fprintf(out, "%-12s %-26s %14.6g %s\n", res.w.name, m.name, m.value, m.unit)
	}
	for _, m := range res.perLayer {
		fmt.Fprintf(out, "%-12s %-26s %14.6g %s\n", res.w.name, m.name, m.value, m.unit)
	}
	if traced {
		fmt.Fprintf(out, "# %s: %d requests traced, spans written to %s\n", res.w.name, res.traced, res.spansFile)
	}
	if res.w.rate > 0 {
		for _, m := range res.perLayer {
			if m.name == "load.late_p99_ms" && m.value >= 5 {
				fmt.Fprintf(out, "# %s: INVALID: generator p99 lateness %.3g ms >= 5 ms\n", res.w.name, m.value)
			}
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.wrong == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	ms := res.endToEnd
	if traced {
		ms = res.perLayer
	}
	for _, m := range ms {
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// commit names the source revision the binary was built from, as the
// go command stamped it, or "unknown" outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
