package bench

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func TestMedianAndMAD(t *testing.T) {
	cases := []struct {
		xs          []float64
		median, mad float64
	}{
		{[]float64{5}, 5, 0},
		{[]float64{1, 2, 3, 4}, 2.5, 1},
		{[]float64{3, 1, 2}, 2, 1},
		// One wild outlier barely moves the robust statistics.
		{[]float64{10, 11, 12, 13, 1000}, 12, 1},
	}
	for _, c := range cases {
		if got := median(c.xs); math.Abs(got-c.median) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.median)
		}
		if got := mad(c.xs); math.Abs(got-c.mad) > 1e-12 {
			t.Errorf("mad(%v) = %v, want %v", c.xs, got, c.mad)
		}
	}
}

func TestRunSuiteMeasuresAndCalibrates(t *testing.T) {
	calls := 0
	s := Suite{
		Name: "test/busy",
		Setup: func() (func() error, func(), error) {
			return func() error {
				calls++
				// Enough work that a sample needs only a handful of
				// iterations to reach the (tiny) target time.
				for i := 0; i < 1000; i++ {
					_ = math.Sqrt(float64(i))
				}
				return nil
			}, nil, nil
		},
	}
	res, err := RunSuite(s, Options{Samples: 3, MinSampleTime: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Suite != "test/busy" || res.Samples != 3 {
		t.Fatalf("result metadata wrong: %+v", res)
	}
	if res.ItersPerSample < 1 || res.MedianNsPerOp <= 0 || res.MinNsPerOp <= 0 {
		t.Fatalf("implausible measurement: %+v", res)
	}
	if res.MinNsPerOp > res.MedianNsPerOp {
		t.Fatalf("min %v > median %v", res.MinNsPerOp, res.MedianNsPerOp)
	}
	if calls < 3*res.ItersPerSample {
		t.Fatalf("op called %d times, want at least samples*iters = %d", calls, 3*res.ItersPerSample)
	}
}

func TestRunSuitePropagatesCleanupAndErrors(t *testing.T) {
	cleaned := false
	s := Suite{
		Name: "test/err",
		Setup: func() (func() error, func(), error) {
			return func() error { return os.ErrInvalid }, func() { cleaned = true }, nil
		},
	}
	if _, err := RunSuite(s, Options{Samples: 2, MinSampleTime: time.Microsecond}); err == nil {
		t.Fatal("op error not propagated")
	}
	if !cleaned {
		t.Fatal("cleanup not run on error")
	}
}

// TestCompareFlagsInjectedSlowdown pins the gate the CI bench-smoke job
// relies on: a >= 20% injected slowdown must regress past a 1.2x
// threshold while an unchanged suite passes.
func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	old := &Report{SchemaVersion: SchemaVersion, Results: []Result{
		{Suite: "a", MedianNsPerOp: 1000},
		{Suite: "b", MedianNsPerOp: 500},
		{Suite: "gone", MedianNsPerOp: 1},
	}}
	cur := &Report{SchemaVersion: SchemaVersion, Results: []Result{
		{Suite: "a", MedianNsPerOp: 1250}, // +25%
		{Suite: "b", MedianNsPerOp: 490},
		{Suite: "new", MedianNsPerOp: 1},
	}}
	deltas, skipped := Compare(old, cur, nil, 1.2)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2 (added/removed suites skipped): %+v", len(deltas), deltas)
	}
	if len(skipped.OnlyOld) != 1 || skipped.OnlyOld[0] != "gone" {
		t.Fatalf("skipped.OnlyOld = %v, want [gone]", skipped.OnlyOld)
	}
	if len(skipped.OnlyNew) != 1 || skipped.OnlyNew[0] != "new" {
		t.Fatalf("skipped.OnlyNew = %v, want [new]", skipped.OnlyNew)
	}
	if len(skipped.Unmeasured) != 0 {
		t.Fatalf("skipped.Unmeasured = %v, want empty", skipped.Unmeasured)
	}
	regs := Regressions(deltas)
	if len(regs) != 1 || regs[0].Suite != "a" {
		t.Fatalf("regressions = %+v, want exactly suite a", regs)
	}
	if math.Abs(regs[0].Ratio-1.25) > 1e-9 {
		t.Fatalf("ratio = %v, want 1.25", regs[0].Ratio)
	}

	// Per-suite threshold override clears the same slowdown.
	deltas, _ = Compare(old, cur, map[string]float64{"a": 1.3}, 1.2)
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("override ignored: %+v", regs)
	}
}

func TestReportSeqAndRoundTrip(t *testing.T) {
	dir := t.TempDir()
	seq, err := NextSeq(dir)
	if err != nil || seq != 1 {
		t.Fatalf("empty dir seq = %d, %v; want 1", seq, err)
	}
	r := NewReport(seq, true, []Result{{Suite: "a", MedianNsPerOp: 42}})
	path := ReportPath(dir, seq)
	if err := WriteReport(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	//fftlint:ignore floatcmp 42 round-trips JSON exactly; any drift is a serialization bug
	if got.Seq != 1 || !got.Quick || len(got.Results) != 1 || got.Results[0].MedianNsPerOp != 42 {
		t.Fatalf("round trip mangled report: %+v", got)
	}
	if seq, _ = NextSeq(dir); seq != 2 {
		t.Fatalf("seq after write = %d, want 2", seq)
	}
	// Non-report files and gaps are tolerated.
	if err := os.WriteFile(filepath.Join(dir, "BENCH_9.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if seq, _ = NextSeq(dir); seq != 10 {
		t.Fatalf("seq with gap = %d, want 10", seq)
	}
	// Wrong schema version is rejected.
	bad := *r
	bad.SchemaVersion = SchemaVersion + 1
	badPath := filepath.Join(dir, "BENCH_11.json")
	if err := WriteReport(badPath, &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(badPath); err == nil {
		t.Fatal("schema version mismatch not rejected")
	}
}

// TestRegisteredSuitesSetUpAndRun smoke-runs a fast representative of
// each subsystem through the real harness with a minimal budget, so a
// suite whose Setup or op breaks fails here rather than first in CI.
func TestRegisteredSuitesSetUpAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping suite smoke in -short")
	}
	names := map[string]bool{}
	for _, s := range All() {
		if names[s.Name] {
			t.Fatalf("duplicate suite name %s", s.Name)
		}
		names[s.Name] = true
	}
	opt := Options{Samples: 1, MinSampleTime: time.Nanosecond, Warmup: 1}
	for _, pattern := range []string{"fft/transform", "parfft/hypercube", "plancache", "netsim/route/hypermesh", "fftd/http"} {
		suites, err := Select(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range suites {
			if _, err := RunSuite(s, opt); err != nil {
				t.Errorf("suite %s: %v", s.Name, err)
			}
		}
	}
}

// TestHandlerFFTAllocations pins what one /v1/fft request allocates
// through Handler().ServeHTTP, socket aside, at three sizes. The codec
// decodes into a pooled arena and renders into the body's buffer, so the
// count must not grow with n; the margin over today's 28–29 absorbs a
// pooled buffer refilled after a GC, never an allocation per sample.
// The bytes are mostly the n×16 B input copy the transform makes.
func TestHandlerFFTAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a quarter of sync.Pool puts, so pooled buffers refill")
	}
	for _, c := range []struct {
		n         int
		maxAllocs float64
		maxKB     float64
	}{
		{256, 34, 8},
		{1024, 34, 21},
		{4096, 34, 72},
	} {
		op, cleanup, err := setupHandlerFFT(c.n)()
		if err != nil {
			t.Fatal(err)
		}
		if err := op(); err != nil { // warm the plan cache and the codec pool
			cleanup()
			t.Fatal(err)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() {
			if err := op(); err != nil {
				panic(err)
			}
		})
		runtime.ReadMemStats(&after)
		cleanup()
		kb := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / 1024
		t.Logf("n=%d: %.1f allocs, %.1f KB per request", c.n, allocs, kb)
		if allocs > c.maxAllocs || kb > c.maxKB {
			t.Errorf("n=%d: %.1f allocs and %.1f KB per request, want at most %.0f and %.0f KB", c.n, allocs, kb, c.maxAllocs, c.maxKB)
		}
	}
}
