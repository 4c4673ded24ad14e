package hypermeshfft

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignPackageMap checks DESIGN.md §3, the package map, against
// the tree: every directory directly under internal/ that holds Go
// files has a row (its sub-packages are described in that row), and
// every internal/ path the section names exists.
func TestDesignPackageMap(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && holdsGo(t, filepath.Join("internal", e.Name())) &&
			!strings.Contains(section, "`internal/"+e.Name()+"`") {
			t.Errorf("DESIGN.md §3 has no row for internal/%s", e.Name())
		}
	}
	for _, m := range regexp.MustCompile("`(internal/[a-z0-9_/]+)`").FindAllStringSubmatch(section, -1) {
		if _, err := os.Stat(m[1]); err != nil {
			t.Errorf("DESIGN.md §3 names %s, which does not exist", m[1])
		}
	}
}

// holdsGo reports whether dir or a directory below it, testdata
// excluded, holds a Go file.
func holdsGo(t *testing.T, dir string) bool {
	found := false
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			found = true
			return filepath.SkipAll
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}
