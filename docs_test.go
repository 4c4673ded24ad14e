package hypermeshfft

import (
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// repoPath is a path under one of the tree's top-level directories,
	// as the docs write it in prose, code spans and code blocks.
	repoPath = regexp.MustCompile(`(?:^|[^\w./-])((?:internal|cmd|docs|examples|\.github)/[\w./*<>{},-]*[\w*>}])`)
	// mdLink is a Markdown link's target, its fragment dropped.
	mdLink = regexp.MustCompile(`\]\(([^)\s#]*)(?:#[^)]*)?\)`)
	// lineRef is a trailing :line or :line-line of a source citation.
	lineRef = regexp.MustCompile(`:\d+(-\d+)?$`)
	// goIdent is an exported or unexported Go identifier, possibly
	// qualified by a type (Cache.Get).
	goIdent = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
	// placeholder is a <name> stand-in, which matches any one segment.
	placeholder = regexp.MustCompile(`<[^>/]*>`)
)

// fileExt lists the extensions that make a path's last segment a file
// name rather than a package qualified by a Go identifier.
var fileExt = map[string]bool{
	"go": true, "md": true, "json": true, "yml": true, "yaml": true, "sh": true, "mod": true, "txt": true,
}

// TestDocPathsExist checks every repository path the Markdown docs name:
// paths under internal/, cmd/, docs/, examples/ and .github/ (a :line
// suffix dropped, globs and <name> placeholders matching at least one
// file, and pkg.Ident read as a package directory plus a Go
// identifier), and every relative Markdown link target.
func TestDocPathsExist(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	for _, pattern := range []string{"docs/*.md", "cmd/*/README.md"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, matches...)
	}
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range repoPath.FindAllStringSubmatch(string(text), -1) {
			if !repoPathExists(m[1]) {
				t.Errorf("%s names %s, which does not exist", doc, m[1])
			}
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(text), -1) {
			target := m[1]
			if target == "" || strings.Contains(target, ":") {
				continue // a fragment-only link or a URL
			}
			if !exists(path.Join(path.Dir(doc), target)) {
				t.Errorf("%s links to %s, which does not exist", doc, target)
			}
		}
	}
}

// repoPathExists reports whether p, as a doc writes it, names something
// in the tree.
func repoPathExists(p string) bool {
	p = lineRef.ReplaceAllString(p, "")
	if exists(p) {
		return true
	}
	dir, last := path.Split(p)
	name, ident, found := strings.Cut(last, ".")
	if !found || fileExt[ident] || !goIdent.MatchString(ident) {
		return false
	}
	// internal/obs.PromWriter: package internal/obs, identifier PromWriter.
	info, err := os.Stat(path.Join(dir, name))
	return err == nil && info.IsDir()
}

// exists reports whether the path, with <name> placeholders and globs
// matching any segment and {a,b} alternatives expanded, matches a file
// or directory.
func exists(p string) bool {
	for _, alt := range expandBraces(placeholder.ReplaceAllString(p, "*")) {
		if matches, err := filepath.Glob(alt); err != nil || len(matches) == 0 {
			return false
		}
	}
	return true
}

// expandBraces expands the first {a,b,...} group of p, recursively.
func expandBraces(p string) []string {
	open := strings.IndexByte(p, '{')
	end := strings.IndexByte(p, '}')
	if open < 0 || end < open {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[open+1:end], ",") {
		out = append(out, expandBraces(p[:open]+alt+p[end+1:])...)
	}
	return out
}
