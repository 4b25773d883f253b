package wdsparql_test

// Checks of the source tree itself: what the library and the served
// binaries link, and that the docs name only what exists.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The library and the binaries an operator runs link only the
// product: the data generators, the p-CLIQUE reduction, the template
// checker and the storage backends' test suite stay out of their
// import closure. Each closure's non-test line count is logged.
func TestProductDependencies(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go command is needed to list import closures: %v", err)
	}
	forbidden := []string{
		"wdsparql/internal/gen",
		"wdsparql/internal/reduction",
		"wdsparql/internal/tmplcheck",
		"wdsparql/internal/rdf/backendtest",
	}
	for _, target := range []string{"./cmd/wdserve", "./cmd/wdsnap", "."} {
		out, err := exec.Command(goTool, "list", "-deps", "-f",
			`{{.ImportPath}}	{{.Dir}}	{{join .GoFiles " "}}`, target).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", target, err)
		}
		pkgs, lines := 0, 0
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			f := strings.SplitN(line, "\t", 3)
			path, dir := f[0], f[1]
			if path != "wdsparql" && !strings.HasPrefix(path, "wdsparql/") {
				continue // the standard library
			}
			if slices.Contains(forbidden, path) {
				t.Errorf("%s links %s", target, path)
			}
			pkgs++
			for _, name := range strings.Fields(f[2]) {
				src, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				lines += bytes.Count(src, []byte("\n"))
			}
		}
		t.Logf("%s: %d packages of this module, %d non-test lines", target, pkgs, lines)
	}
}

// Names the docs give must exist in the tree: every Test, Benchmark
// and Fuzz function, every .go file, and every cmd/, internal/ and
// examples/ path named in DESIGN.md, README.md and the verify skill.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	funcs := map[string]bool{}
	base := map[string]bool{}
	declRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			if err == nil && d.IsDir() && d.Name() == ".git" {
				return filepath.SkipDir
			}
			return err
		}
		base[d.Name()] = true
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range declRE.FindAllSubmatch(src, -1) {
				funcs[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	goFileRE := regexp.MustCompile(`[\w./-]*\w\.go\b`)
	dirRE := regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:cmd|internal|examples)/[\w/-]*\w(?:\.[a-z]+\b)?)`)
	for _, doc := range []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		for _, name := range nameRE.FindAllString(text, -1) {
			if !funcs[name] {
				t.Errorf("%s names %s, which no test file declares", doc, name)
			}
		}
		for _, path := range goFileRE.FindAllString(text, -1) {
			if !strings.Contains(path, "/") && base[path] {
				continue
			}
			if _, err := os.Stat(strings.TrimPrefix(path, "./")); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, path)
			}
		}
		for _, m := range dirRE.FindAllStringSubmatch(text, -1) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, m[1])
			}
		}
	}
}
