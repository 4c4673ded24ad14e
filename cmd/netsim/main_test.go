package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestScheduleSumsToTotalSteps runs the hypermesh FFT scenario with
// -schedule and checks that the listing's step costs add up to the
// report's total: 12 butterfly steps plus a 3-step bit reversal at
// N = 4096 (Table 2A).
func TestScheduleSumsToTotalSteps(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "hypermesh", 4096, true, "fft", 1, 1, true, ""); err != nil {
		t.Fatal(err)
	}
	report, schedule, ok := strings.Cut(out.String(), "schedule trace:")
	if !ok {
		t.Fatalf("no schedule in output:\n%s", out.String())
	}
	total := -1
	for _, line := range strings.Split(report, "\n") {
		if rest, ok := strings.CutPrefix(line, "total data-transfer steps"); ok {
			if _, err := fmt.Sscan(rest, &total); err != nil {
				t.Fatalf("total row %q: %v", line, err)
			}
		}
	}
	if total != 15 {
		t.Fatalf("report total = %d, want 15", total)
	}
	sum, ops := 0, 0
	for _, line := range strings.Split(schedule, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[len(f)-1] != "step(s)" {
			continue
		}
		var steps int
		if _, err := fmt.Sscan(f[len(f)-2], &steps); err != nil {
			t.Fatalf("schedule line %q: %v", line, err)
		}
		sum += steps
		ops++
	}
	if ops == 0 || sum != total {
		t.Fatalf("schedule lists %d operations summing to %d steps, want %d:\n%s", ops, sum, total, schedule)
	}
}
