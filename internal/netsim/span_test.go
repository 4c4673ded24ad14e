package netsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/permute"
)

// netsimSpans returns the tracer's machine-operation spans in the order
// they started.
func netsimSpans(tr *obs.Tracer) []obs.SpanData {
	var out []obs.SpanData
	for _, s := range tr.Snapshot() {
		if s.Cat == obs.CatNetsim {
			out = append(out, s)
		}
	}
	return out
}

func TestTraceRecordsHypermeshFFTSchedule(t *testing.T) {
	tr := obs.New()
	hm, _ := NewHypermesh[int](8, 2, Config{Obs: tr})
	fill(hm)
	id := func(self, partner int, node int) int { return self }
	for bit := 0; bit < 6; bit++ {
		if err := hm.ExchangeCompute(bit, id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hm.Route(permute.BitReversal(64)); err != nil {
		t.Fatal(err)
	}
	exchanges, netPermutes := 0, 0
	for _, s := range netsimSpans(tr) {
		switch s.Name {
		case "exchange":
			exchanges++
		case "net-permute":
			netPermutes++
		}
	}
	if exchanges != 6 {
		t.Fatalf("recorded %d exchanges, want 6", exchanges)
	}
	if netPermutes < 1 || netPermutes > 3 {
		t.Fatalf("recorded %d net permutations, want 1..3", netPermutes)
	}
	// Span step total must match machine stats.
	if got, want := tr.StepsByCat()[obs.CatNetsim], hm.Stats().Steps; got != want {
		t.Fatalf("span steps %d != machine steps %d", got, want)
	}
}

func TestTraceRecordsMeshDistancesAndRoutes(t *testing.T) {
	tr := obs.New()
	m, _ := NewMesh[int](8, true, Config{Obs: tr})
	fill(m)
	id := func(self, partner int, node int) int { return self }
	if err := m.ExchangeCompute(2, id); err != nil { // distance 4 in rows
		t.Fatal(err)
	}
	if _, err := m.Route(permute.ReverseAll(64)); err != nil {
		t.Fatal(err)
	}
	if err := m.ShiftRows(2); err != nil {
		t.Fatal(err)
	}
	spans := netsimSpans(tr)
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans", len(spans))
	}
	if spans[0].Name != "exchange" || spans[0].Steps != 4 {
		t.Fatalf("exchange span %+v", spans[0])
	}
	if spans[1].Name != "route" || spans[1].Steps < 1 {
		t.Fatalf("route span %+v", spans[1])
	}
	if spans[2].Name != "shift" || spans[2].Steps != 2 {
		t.Fatalf("shift span %+v", spans[2])
	}
}

func TestTraceRecordsHypercubeBitSwaps(t *testing.T) {
	tr := obs.New()
	h, _ := NewHypercube[int](8, Config{Obs: tr})
	fill(h)
	if _, err := h.RouteBitReversal(); err != nil {
		t.Fatal(err)
	}
	swaps := 0
	for _, s := range netsimSpans(tr) {
		if s.Name == "bit-swap" {
			swaps++
			if s.Steps != 2 {
				t.Fatalf("bit swap costs %d steps", s.Steps)
			}
		}
	}
	if swaps != 4 { // (0,7),(1,6),(2,5),(3,4)
		t.Fatalf("recorded %d bit swaps, want 4", swaps)
	}
}

func TestUntracedMachinesStillWork(t *testing.T) {
	// The default Config carries a nil tracer; everything must run.
	hm, _ := NewHypermesh[int](4, 2, Config{})
	fill(hm)
	if _, err := hm.Route(permute.BitReversal(16)); err != nil {
		t.Fatal(err)
	}
}

// TestValiantRouteSpan checks that a traced RouteValiant reports one
// route span carrying the steps it returns.
func TestValiantRouteSpan(t *testing.T) {
	tr := obs.New()
	h, _ := NewHypercube[int](6, Config{Obs: tr})
	fill(h)
	rng := rand.New(rand.NewSource(3))
	steps, err := h.RouteValiant(permute.Random(64, rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	spans := netsimSpans(tr)
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1: %+v", len(spans), spans)
	}
	if s := spans[0]; s.Name != "route" || s.Detail != "valiant two-phase" || s.Steps != steps {
		t.Fatalf("valiant span %+v, want route \"valiant two-phase\" with %d steps", s, steps)
	}
}

// TestFailedOperationsEndTheirSpans checks that an operation returning
// an error still ends its span: with a clock that advances on every
// read, an open span would read longer in each later snapshot.
func TestFailedOperationsEndTheirSpans(t *testing.T) {
	tick := time.Unix(0, 0)
	tr := obs.NewWithClock(func() time.Time {
		tick = tick.Add(time.Millisecond)
		return tick
	})
	cfg := Config{Obs: tr}
	hm, _ := NewHypermesh[int](4, 2, cfg)
	mesh, _ := NewMesh[int](8, true, cfg)
	cube, _ := NewHypercube[int](6, cfg)
	kary, _ := NewKAryNCube[int](4, 2, cfg)
	mesh.maxStep, cube.maxStep, kary.maxStep = 0, 0, 0
	rng := rand.New(rand.NewSource(1))
	fails := map[string]func() error{
		"net-permute": func() error {
			bad := [][]int{{0, 0, 1, 2}, {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}}
			return hm.PermuteNets(0, bad)
		},
		"mesh route": func() error { _, err := mesh.Route(permute.ReverseAll(64)); return err },
		"cube route": func() error { _, err := cube.Route(permute.ReverseAll(64)); return err },
		"kary route": func() error { _, err := kary.Route(permute.ReverseAll(16)); return err },
		"valiant": func() error {
			_, err := cube.RouteValiant(permute.ReverseAll(64), rng)
			return err
		},
	}
	for name, op := range fails {
		if err := op(); err == nil {
			t.Fatalf("%s: want an error", name)
		}
	}
	first, second := tr.Snapshot(), tr.Snapshot()
	for i := range first {
		if first[i].Duration != second[i].Duration {
			t.Errorf("span %q still open: %v then %v", first[i].Name, first[i].Duration, second[i].Duration)
		}
	}
	if len(first) != len(fails) {
		t.Fatalf("recorded %d spans, want one per failed operation (%d)", len(first), len(fails))
	}
}
