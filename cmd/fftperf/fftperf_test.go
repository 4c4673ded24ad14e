package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStall stalls the target once for 200 ms while two
// clients are in use. Every request that fell due during the stall must
// carry the wait it spent queued behind it, timed from its due time, and
// the dispatcher's blocking must not count as generator lateness.
func TestOpenLoopChargesStall(t *testing.T) {
	const gap, stall, stalled = 10 * time.Millisecond, 200 * time.Millisecond, 10
	due := make([]time.Duration, 60)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	var mu sync.Mutex // the target serves one request at a time
	send := func(_ context.Context, _, i int) bool {
		mu.Lock()
		defer mu.Unlock()
		if i == stalled {
			time.Sleep(stall)
		} else {
			time.Sleep(time.Millisecond)
		}
		return true
	}
	res := openLoop(context.Background(), due, 2, send)
	if res.issued != len(due) {
		t.Fatalf("issued %d of %d", res.issued, len(due))
	}
	stallEnd := due[stalled] + stall
	for i := stalled + 1; due[i] < stallEnd; i++ {
		if want := stallEnd - due[i]; res.lat[i] < want {
			t.Errorf("request %d due %v during the stall: latency %v, want >= %v", i, due[i], res.lat[i], want)
		}
	}
	if late := quantile(sortedCopy(res.late), 0.99); late > 20*time.Millisecond {
		t.Errorf("generator lateness p99 %v counts the stall as its own", late)
	}
}

// TestClosedLoopCountsFailuresAsMisses: a failed request sorts after
// every latency, so it sits in the tail percentiles.
func TestClosedLoopCountsFailuresAsMisses(t *testing.T) {
	send := func(_ context.Context, _, i int) bool { return i%2 == 0 }
	res := closedLoop(context.Background(), 10, time.Minute, 1, send)
	if res.issued != 10 {
		t.Fatalf("issued %d, want 10", res.issued)
	}
	if p := quantile(sortedCopy(res.lat), 0.99); p != missed {
		t.Fatalf("p99 with half the requests failed = %v, want a miss", p)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

// TestSmoke runs every workload for about a second against real fftd
// processes, plus a 24-request traced pass, and checks that the result
// lines name exactly the metrics and units of BENCHMARK.json, that no
// request failed, and that the span file parses with one span per rung
// and rungs ordered top to bottom.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts fftd processes")
	}
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, fftperf has %d", len(spec.Workload), len(workloads))
	}

	dir := t.TempDir()
	fftd := filepath.Join(dir, "fftd")
	if out, err := exec.Command("go", "build", "-o", fftd, "repro/cmd/fftd").CombinedOutput(); err != nil {
		t.Fatalf("build fftd: %v\n%s", err, out)
	}
	cfg := runConfig{seed: 1, window: time.Second, traced: true, fftd: fftd, spans: dir, fleets: 2, ladderN: 24, ladderBudget: time.Minute}
	for _, sw := range spec.Workload {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in fftperf", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.wrong != 0 {
				t.Fatalf("%d of %d requests failed, %d wrong: %v", res.failed, res.attempted, res.wrong, res.firstWrong)
			}
			for _, c := range []struct {
				traced bool
				want   []struct{ Name, Unit string }
			}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
				got := resultLine(t, res, c.traced)
				if len(got.Metrics) != len(c.want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json lists %d", c.traced, len(got.Metrics), len(c.want))
				}
				for _, m := range c.want {
					if v, ok := got.Metrics[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s: got %+v, want unit %s", c.traced, m.Name, v, m.Unit)
					}
				}
			}
			checkSpans(t, res.spansFile)
		})
	}
}

type resultJSON struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func resultLine(t *testing.T, res *result, traced bool) resultJSON {
	t.Helper()
	var buf bytes.Buffer
	if err := report(&buf, res, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
		t.Errorf("result line %+v", got)
	}
	return got
}

// ladderLevels lists the rungs of every ladder from the top down; a
// request's ladder is the levels its spans name, and the bottom level's
// rungs are siblings whose times add up.
var ladderLevels = [][]string{
	{"http"},
	{"server.handler"},
	{"server.execute"},
	{"pencil.cluster"},
	{"pencil.local"},
	{"plancache.lookup", "fft.kernel", "parfft.run", "netsim.route", "fft.plan2d"},
}

// orderSlack is how far below zero, as a share of the level below, the
// median self time of a level may read before the ladder counts as out
// of order. A mis-wired rung reads far below; the thinnest layers read
// near zero: executeOp's own work costs less than the bookkeeping of the
// two spans that time its parts, and the simulate handler adds 1-3% to a
// large simulation, which single samples miss by more than that.
const orderSlack = 0.25

// checkSpans parses the Chrome trace and checks each request's tree: one
// root and one span per rung, at least three rungs, and over the requests
// of one ladder shape, every level's median self time (its total minus
// the level below's, request by request) not below zero.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string
			TID  int
			Dur  float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	trees := map[int]map[string]float64{}
	for _, e := range tr.TraceEvents {
		if trees[e.TID] == nil {
			trees[e.TID] = map[string]float64{}
		}
		if _, dup := trees[e.TID][e.Name]; dup {
			t.Errorf("tree %d: more than one %q span, want one per rung", e.TID, e.Name)
		}
		trees[e.TID][e.Name] = e.Dur
	}
	if len(trees) < 24 {
		t.Fatalf("%d request trees, want 24", len(trees))
	}
	// Per ladder shape, the per-request totals of each level present.
	totals := map[string][][]float64{}
	for tid, durs := range trees {
		if _, ok := durs["request"]; !ok || len(durs) < 4 {
			t.Errorf("tree %d: spans %v", tid, durs)
			continue
		}
		var shape []string
		var levels []float64
		for _, level := range ladderLevels {
			sum, found := 0.0, false
			for _, name := range level {
				if d, ok := durs[name]; ok {
					sum, found = sum+d, true
					shape = append(shape, name)
				}
			}
			if found {
				levels = append(levels, sum)
			}
		}
		key := strings.Join(shape, ">")
		if totals[key] == nil {
			totals[key] = make([][]float64, len(levels))
		}
		for k, v := range levels {
			totals[key][k] = append(totals[key][k], v)
		}
	}
	for shape, levels := range totals {
		for k := 0; k+1 < len(levels); k++ {
			self := make([]float64, len(levels[k]))
			for i := range self {
				self[i] = levels[k][i] - levels[k+1][i]
			}
			if s, lo := median(self), median(levels[k+1]); s < -orderSlack*lo {
				t.Errorf("ladder %s: level %d median self time %.1f us against %.1f us below it", shape, k, s, lo)
			}
		}
	}
}
