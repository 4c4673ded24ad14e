package escape

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestParseMSample pins the parser against a captured -gcflags=-m
// stream: exactly the "escapes to heap" and "moved to heap" lines
// survive, attributed to the package of the preceding '#' header, and
// every other diagnostic flavour (inlining notes, "does not escape",
// "leaking param", free-form noise) is dropped.
func TestParseMSample(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "gcflags_m_sample.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := ParseM(string(data))
	want := []Diag{
		{Pkg: "repro/internal/plancache", File: "internal/plancache/plancache.go", Line: 95, Col: 12, Kind: KindEscape, What: "&Cache{...}"},
		{Pkg: "repro/internal/plancache", File: "internal/plancache/plancache.go", Line: 101, Col: 23, Kind: KindEscape, What: "make([]shard, nshards)"},
		{Pkg: "repro/internal/fft", File: "internal/fft/fft.go", Line: 43, Col: 66, Kind: KindEscape, What: "n"},
		{Pkg: "repro/internal/fft", File: "internal/fft/fft.go", Line: 45, Col: 7, Kind: KindEscape, What: "&Plan{...}"},
		{Pkg: "repro/internal/fft", File: "internal/fft/fft.go", Line: 46, Col: 13, Kind: KindEscape, What: "make([]complex128, n / 2)"},
		{Pkg: "repro/internal/fft", File: "internal/fft/fft.go", Line: 104, Col: 20, Kind: KindEscape, What: `fmt.Sprintf("fft: stage %d out of range [0,%d)", ... argument...)`},
		{Pkg: "repro/internal/fft", File: "internal/fft/parallel.go", Line: 61, Col: 2, Kind: KindMoved, What: "wg"},
		{Pkg: "repro/internal/fft", File: "internal/fft/parallel.go", Line: 63, Col: 10, Kind: KindEscape, What: "func literal"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseM mismatch:\n got: %+v\nwant: %+v", got, want)
	}
}

func TestMinorVersion(t *testing.T) {
	cases := map[string]string{
		"go1.24.0":            "go1.24",
		"go1.24.5":            "go1.24",
		"go1.23":              "go1.23",
		"go1.23.11":           "go1.23",
		"devel go1.25-abcdef": "devel go1.25-abcdef",
		"not-a-version":       "not-a-version",
		"go1":                 "go1",
		"go1.22rc1":           "go1.22rc1", // rc suffix rides along in the minor: still distinct from go1.22
	}
	for in, want := range cases {
		if got := MinorVersion(in); got != want {
			t.Errorf("MinorVersion(%q) = %q, want %q", in, got, want)
		}
	}
}

func mkReport(goVersion string, counts map[[2]string]int) *Report {
	byPkg := make(map[string][]FuncEscapes)
	for k, n := range counts {
		byPkg[k[0]] = append(byPkg[k[0]], FuncEscapes{Func: k[1], Count: n})
	}
	r := &Report{SchemaVersion: SchemaVersion, GoVersion: goVersion}
	for p, fns := range byPkg {
		total := 0
		for _, f := range fns {
			total += f.Count
		}
		r.Packages = append(r.Packages, PackageEscapes{Path: p, Total: total, Funcs: fns})
		r.Total += total
	}
	return r
}

func TestCompareGates(t *testing.T) {
	base := mkReport("go1.24.0", map[[2]string]int{
		{"p", "Stable"}:  3,
		{"p", "Shrinks"}: 5,
		{"p", "Gone"}:    2,
	})
	cur := mkReport("go1.24.1", map[[2]string]int{
		{"p", "Stable"}:  3,
		{"p", "Shrinks"}: 1,
		{"p", "Grew"}:    4, // absent from baseline: budget is zero
	})
	cmp, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Regressions) != 1 || cmp.Regressions[0].Func != "Grew" ||
		cmp.Regressions[0].Baseline != 0 || cmp.Regressions[0].Current != 4 {
		t.Fatalf("regressions = %+v, want only Grew 0->4", cmp.Regressions)
	}
	wantImproved := map[string]bool{"Shrinks": true, "Gone": true}
	if len(cmp.Improvements) != 2 || !wantImproved[cmp.Improvements[0].Func] || !wantImproved[cmp.Improvements[1].Func] {
		t.Fatalf("improvements = %+v, want Shrinks and Gone", cmp.Improvements)
	}
}

// TestCompareRefusesVersionSkew pins the drift policy: a baseline from
// another Go minor is a hard, typed error — never a silent diff.
func TestCompareRefusesVersionSkew(t *testing.T) {
	base := mkReport("go1.23.4", map[[2]string]int{{"p", "F"}: 1})
	cur := mkReport("go1.24.0", map[[2]string]int{{"p", "F"}: 1})
	_, err := Compare(base, cur)
	skew, ok := err.(*VersionSkewError)
	if !ok {
		t.Fatalf("err = %v, want *VersionSkewError", err)
	}
	for _, must := range []string{"go1.23.4", "go1.24.0", "re-record", "alloc-baseline"} {
		if !strings.Contains(skew.Error(), must) {
			t.Fatalf("skew message %q does not mention %q", skew.Error(), must)
		}
	}
}

// TestLiveCompilerFormat runs the real toolchain over one hot package
// and fails loudly if the -gcflags=-m diagnostic format has drifted to
// something ParseM no longer recognises — the canary for a Go upgrade
// changing the stream this whole subsystem is built on.
func TestLiveCompilerFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping compiler invocation")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.ModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := BuildDiagnostics(root, []string{"internal/fft"})
	if err != nil {
		t.Fatal(err)
	}
	diags := ParseM(raw)
	if len(diags) == 0 {
		t.Fatalf("%s emitted no parseable heap-escape diagnostics for internal/fft; "+
			"the -gcflags=-m format has drifted — update escape.ParseM and re-baseline ALLOC_<seq>.json",
			runtime.Version())
	}
	for _, d := range diags {
		if d.Pkg != "repro/internal/fft" {
			t.Fatalf("diag attributed to %q, want repro/internal/fft: %+v", d.Pkg, d)
		}
		if !strings.HasPrefix(d.File, "internal/fft/") {
			t.Fatalf("diag file %q not under internal/fft; path format drifted", d.File)
		}
	}

	// Attribution end-to-end: every site lands in a named declaration
	// (or package init), and per-function counts stay consistent.
	rep, err := Attribute(root, []string{"internal/fft"}, diags)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total == 0 || len(rep.Packages) != 1 {
		t.Fatalf("report = %+v, want one package with escapes", rep)
	}
	for _, p := range rep.Packages {
		sum := 0
		for _, f := range p.Funcs {
			if f.Func == "" {
				t.Fatalf("unnamed function in report: %+v", f)
			}
			if f.Count != len(f.Sites) {
				t.Fatalf("%s count %d != %d sites", f.Func, f.Count, len(f.Sites))
			}
			sum += f.Count
		}
		if sum != p.Total {
			t.Fatalf("%s total %d != sum %d", p.Path, p.Total, sum)
		}
	}
}

// TestHotPackagesFindsMarkedDirs pins hot-package discovery against the
// real tree: the five marked packages, testdata excluded.
func TestHotPackagesFindsMarkedDirs(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.ModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := HotPackages(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/bench", "internal/cluster/wire", "internal/fft", "internal/jsonnum", "internal/parfft", "internal/plancache"}
	if !reflect.DeepEqual(dirs, want) {
		t.Fatalf("HotPackages = %v, want %v", dirs, want)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Fatalf("testdata dir leaked into hot set: %s", d)
		}
	}
}
