// Package analysistest runs an iqlint analyzer over a fixture package and
// checks its diagnostics against `// want` expectations, mirroring
// x/tools' package of the same name on the stdlib-only framework.
//
// A fixture is an ordinary buildable package under
// internal/analysis/testdata/src/<name>/ (testdata is invisible to ./...
// wildcards but loadable by explicit path, and may import the module's
// internal packages — fixtures exercise the real packet/uio/trace types).
// Expectations annotate the offending line:
//
//	sink = p.Payload // want `borrowed`
//
// where the backquoted text is a regexp that must match a diagnostic
// reported on that line. Every diagnostic must be wanted and every want
// must be matched.
package analysistest

import (
	"regexp"
	"testing"

	"github.com/cercs/iqrudp/internal/analysis"
)

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// expectation is one `// want` comment.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture package rooted at dir (relative to the test's
// working directory) and applies a to it, comparing diagnostics with the
// fixture's want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkgs, err := analysis.Load(dir, ".")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", dir)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			// Fixtures must compile: a broken fixture tests nothing.
			t.Errorf("fixture type error: %v", terr)
		}
	}

	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	expects := collectWants(t, pkgs)
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		if e := match(expects, pos.Filename, pos.Line, d.Message); e != nil {
			e.matched = true
			continue
		}
		t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
}

func match(expects []*expectation, file string, line int, msg string) *expectation {
	for _, e := range expects {
		if !e.matched && e.file == file && e.line == line && e.re.MatchString(msg) {
			return e
		}
	}
	return nil
}

// collectWants scans fixture comments for `// want` expectations. It works
// on the parsed files' comment lists so positions come from the shared
// FileSet.
func collectWants(t *testing.T, pkgs []*analysis.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							pos := pkg.Fset.Position(c.Pos())
							t.Fatalf("%s: bad want regexp %q: %v", pos, m[1], err)
						}
						pos := pkg.Fset.Position(c.Pos())
						out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return out
}
