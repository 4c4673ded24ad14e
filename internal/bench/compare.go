package bench

// DefaultThreshold is the allowed median slowdown ratio (new/old) for
// suites without a per-suite override: 25% on top of run-to-run noise,
// which the median-of-samples design keeps small on an idle machine.
// CI uses a much looser value (see the bench-smoke job) because shared
// runners are noisy and cross-machine baselines are not comparable at
// tight margins.
const DefaultThreshold = 1.25

// DefaultThresholds returns per-suite overrides of DefaultThreshold.
// End-to-end HTTP latency carries kernel scheduling and loopback
// networking in its signal, and the word-level machine simulations are
// branchy pointer-chasing workloads whose medians swing well past 25%
// between runs on shared hosts, so those suites get more headroom.
func DefaultThresholds() map[string]float64 {
	return map[string]float64{
		"fftd/http/fft/n1024":    1.60,
		"fftd/handler/fft/n1024": 1.60,
		"plancache/hit":          1.60, // tens of ns; one cache-line bounce moves it
		"parfft/mesh/n256":       1.75,
		"parfft/hypercube/n256":  1.75,
		"parfft/hypermesh/n256":  1.75,
	}
}

// Delta is the comparison of one suite across two reports.
type Delta struct {
	Suite     string  `json:"suite"`
	OldMedian float64 `json:"old_median_ns_per_op"`
	NewMedian float64 `json:"new_median_ns_per_op"`
	// Ratio is NewMedian/OldMedian: < 1 is a speedup, > Threshold is a
	// regression.
	Ratio     float64 `json:"ratio"`
	Threshold float64 `json:"threshold"`
	Regressed bool    `json:"regressed"`
}

// Skipped names the suites a comparison could not diff: present in
// only one report (renames and additions are not regressions) or
// common but without a usable old median. The gate prints them so a
// suite silently dropping out of coverage is visible in the CI log
// instead of passing as "no regression".
type Skipped struct {
	// OnlyOld are suites in the old report but not the new one.
	OnlyOld []string `json:"only_old,omitempty"`
	// OnlyNew are suites in the new report but not the old one.
	OnlyNew []string `json:"only_new,omitempty"`
	// Unmeasured are common suites whose old median was not positive,
	// leaving no baseline to compare against.
	Unmeasured []string `json:"unmeasured,omitempty"`
}

// Empty reports whether nothing was skipped.
func (s Skipped) Empty() bool {
	return len(s.OnlyOld) == 0 && len(s.OnlyNew) == 0 && len(s.Unmeasured) == 0
}

// Compare diffs two reports suite by suite. Suites present in only one
// report are skipped and returned by name alongside the deltas; the
// deltas follow the new report's suite order and OnlyOld follows the
// old report's. thresholds maps suite name to allowed ratio, falling
// back to def (or DefaultThreshold when def <= 0).
func Compare(old, cur *Report, thresholds map[string]float64, def float64) ([]Delta, Skipped) {
	if def <= 0 {
		def = DefaultThreshold
	}
	oldBySuite := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldBySuite[r.Suite] = r
	}
	var skipped Skipped
	curSuites := make(map[string]bool, len(cur.Results))
	for _, nr := range cur.Results {
		curSuites[nr.Suite] = true
	}
	for _, or := range old.Results {
		if !curSuites[or.Suite] {
			skipped.OnlyOld = append(skipped.OnlyOld, or.Suite)
		}
	}
	deltas := make([]Delta, 0, len(cur.Results))
	for _, nr := range cur.Results {
		or, ok := oldBySuite[nr.Suite]
		if !ok {
			skipped.OnlyNew = append(skipped.OnlyNew, nr.Suite)
			continue
		}
		if or.MedianNsPerOp <= 0 {
			skipped.Unmeasured = append(skipped.Unmeasured, nr.Suite)
			continue
		}
		th := def
		if t, ok := thresholds[nr.Suite]; ok {
			th = t
		}
		ratio := nr.MedianNsPerOp / or.MedianNsPerOp
		deltas = append(deltas, Delta{
			Suite:     nr.Suite,
			OldMedian: or.MedianNsPerOp,
			NewMedian: nr.MedianNsPerOp,
			Ratio:     ratio,
			Threshold: th,
			Regressed: ratio > th,
		})
	}
	return deltas, skipped
}

// Regressions filters deltas down to the failing ones.
func Regressions(deltas []Delta) []Delta {
	out := make([]Delta, 0, len(deltas))
	for _, d := range deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}
