package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestChromeTraceGolden pins the exact trace_event bytes for a small
// deterministic tree: the contract that a -trace file keeps loading in
// chrome://tracing and Perfetto unchanged across refactors.
func TestChromeTraceGolden(t *testing.T) {
	tr := NewWithClock(testClock(time.Millisecond))
	root := tr.Start("fft run")                                                               // clock reads: start@1ms
	rank := root.Child("butterfly rank 11").SetCat(CatParfft).SetDetail("bit 11").AddSteps(1) // start@2ms
	rank.End()                                                                                // end@3ms
	rev := root.Child("bit-reversal").SetCat(CatParfft).AddSteps(3)                           // start@4ms
	rev.End()                                                                                 // end@5ms
	root.End()                                                                                // end@6ms

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{
 "traceEvents": [
  {
   "name": "fft run",
   "ph": "X",
   "ts": 1000,
   "dur": 5000,
   "pid": 1,
   "tid": 1,
   "args": {
    "id": 1
   }
  },
  {
   "name": "butterfly rank 11",
   "cat": "parfft",
   "ph": "X",
   "ts": 2000,
   "dur": 1000,
   "pid": 1,
   "tid": 1,
   "args": {
    "id": 2,
    "parent": 1,
    "detail": "bit 11",
    "steps": 1
   }
  },
  {
   "name": "bit-reversal",
   "cat": "parfft",
   "ph": "X",
   "ts": 4000,
   "dur": 1000,
   "pid": 1,
   "tid": 1,
   "args": {
    "id": 3,
    "parent": 1,
    "steps": 3
   }
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if got := buf.String(); got != want {
		t.Errorf("chrome trace mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestChromeTraceSeparatesTrees checks that independent root spans land
// on distinct tids, so concurrent requests render as separate tracks.
func TestChromeTraceSeparatesTrees(t *testing.T) {
	tr := NewWithClock(testClock(time.Millisecond))
	a := tr.Start("req-a")
	ac := a.Child("work")
	b := tr.Start("req-b")
	bc := b.Child("work")
	ac.End()
	bc.End()
	a.End()
	b.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int{}
	for _, e := range out.TraceEvents {
		tids[e.Name] = e.TID
	}
	if tids["req-a"] == tids["req-b"] {
		t.Fatalf("both trees share tid %d", tids["req-a"])
	}
	if tids["req-a"] != tids["work"] && tids["req-b"] != tids["work"] {
		t.Fatalf("children not grouped with parents: %v", tids)
	}
}

func TestWriteJSON(t *testing.T) {
	tr := NewWithClock(testClock(time.Millisecond))
	s := tr.Start("run")
	s.Child("phase").SetCat(CatNetsim).AddSteps(7).End()
	s.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Spans []SpanData `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, buf.String())
	}
	if len(out.Spans) != 2 || out.Spans[1].Steps != 7 || out.Spans[1].Cat != CatNetsim {
		t.Fatalf("round-tripped spans = %+v", out.Spans)
	}
	if !strings.Contains(buf.String(), `"duration_ns"`) {
		t.Fatal("JSON export missing duration_ns field")
	}
}

// TestNilTracerExports verifies the disabled tracer still exports
// valid, empty documents (cmd tools can write unconditionally).
func TestNilTracerExports(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents": []`) {
		t.Fatalf("nil tracer chrome trace = %s", buf.String())
	}
}
