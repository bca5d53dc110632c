package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Directive names. Suppressions are spelled
//
//	//iqlint:ignore analyzer1,analyzer2 -- why
//
// on the offending line (or the line above it); the annotation
//
//	//iqlint:borrow
//
// in a function's doc comment opts that function's *packet.Packet
// parameters into the borrowcheck contract (see that analyzer).
const (
	ignoreDirective = "iqlint:ignore"
	// BorrowDirective marks a function whose packet parameters are borrowed.
	BorrowDirective = "iqlint:borrow"
)

// HasDirective reports whether the function's doc comment carries the
// given //iqlint: directive.
func HasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// ignoreComment is one parsed //iqlint:ignore directive.
type ignoreComment struct {
	file  string
	line  int
	pos   token.Pos
	names []string
}

// ignoreComments parses every //iqlint:ignore directive in the load.
func ignoreComments(pkgs []*Package) []ignoreComment {
	var out []ignoreComment
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, ignoreDirective) {
						continue
					}
					rest := strings.TrimPrefix(text, ignoreDirective)
					if reason := strings.Index(rest, "--"); reason >= 0 {
						rest = rest[:reason]
					}
					pos := pkg.Fset.Position(c.Pos())
					ic := ignoreComment{file: pos.Filename, line: pos.Line, pos: c.Pos()}
					for _, name := range strings.Split(rest, ",") {
						if name = strings.TrimSpace(name); name != "" {
							ic.names = append(ic.names, name)
						}
					}
					if len(ic.names) > 0 {
						out = append(out, ic)
					}
				}
			}
		}
	}
	return out
}

// suppressions maps filename -> line -> analyzer names ignored there.
func suppressions(pkgs []*Package) map[string]map[int][]string {
	sup := make(map[string]map[int][]string)
	for _, ic := range ignoreComments(pkgs) {
		lines := sup[ic.file]
		if lines == nil {
			lines = make(map[int][]string)
			sup[ic.file] = lines
		}
		lines[ic.line] = append(lines[ic.line], ic.names...)
	}
	return sup
}

// runRaw applies every analyzer to every package and returns the
// diagnostics before suppression filtering or sorting.
func runRaw(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.Pkg == nil {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
			}
			pass.report = func(d Diagnostic) { diags = append(diags, d) }
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
			}
		}
	}
	return diags, nil
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics, sorted by position, with //iqlint:ignore suppressions
// applied (a suppression on the diagnostic's line or the line above it).
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, err := runRaw(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	sup := suppressions(pkgs)
	kept := diags[:0]
	fsetOf := func(d Diagnostic) *token.FileSet {
		// All packages loaded together share one FileSet.
		return pkgs[0].Fset
	}
	for _, d := range diags {
		pos := fsetOf(d).Position(d.Pos)
		if ignored(sup, pos.Filename, pos.Line, d.Analyzer) {
			continue
		}
		kept = append(kept, d)
	}
	diags = kept
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fsetOf(diags[i]).Position(diags[i].Pos), fsetOf(diags[j]).Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

func ignored(sup map[string]map[int][]string, file string, line int, analyzer string) bool {
	lines, ok := sup[file]
	if !ok {
		return false
	}
	for _, l := range []int{line, line - 1} {
		for _, name := range lines[l] {
			if name == analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// Print writes diagnostics in the conventional file:line:col format.
func Print(w io.Writer, fset *token.FileSet, diags []Diagnostic) {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(w, "%s: %s [%s]\n", pos, d.Message, d.Analyzer)
	}
}

// StaleIgnores audits the //iqlint:ignore comments of a load: it re-runs
// every analyzer with suppression disabled and flags each ignore directive
// that no longer suppresses any diagnostic (the code it excused was fixed
// or moved — the comment now only misleads) and each directive naming an
// analyzer that does not exist. Returned diagnostics carry the analyzer
// name "staleignores" and are sorted by position.
func StaleIgnores(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	raw, err := runRaw(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	// file -> covered line -> analyzers that actually reported there. An
	// ignore at line L covers diagnostics on L and L+1.
	hits := make(map[string]map[int]map[string]bool)
	if len(pkgs) > 0 {
		fset := pkgs[0].Fset
		for _, d := range raw {
			pos := fset.Position(d.Pos)
			lines := hits[pos.Filename]
			if lines == nil {
				lines = make(map[int]map[string]bool)
				hits[pos.Filename] = lines
			}
			for _, l := range []int{pos.Line, pos.Line - 1} {
				if lines[l] == nil {
					lines[l] = make(map[string]bool)
				}
				lines[l][d.Analyzer] = true
			}
		}
	}
	var out []Diagnostic
	for _, ic := range ignoreComments(pkgs) {
		covered := hits[ic.file][ic.line]
		for _, name := range ic.names {
			switch {
			case name != "all" && !known[name]:
				out = append(out, Diagnostic{
					Pos:      ic.pos,
					Analyzer: "staleignores",
					Message:  fmt.Sprintf("//iqlint:ignore names unknown analyzer %q", name),
				})
			case name == "all" && len(covered) > 0,
				name != "all" && covered[name]:
				// live suppression
			default:
				out = append(out, Diagnostic{
					Pos:      ic.pos,
					Analyzer: "staleignores",
					Message:  fmt.Sprintf("stale //iqlint:ignore %s: no %s diagnostic on this line; delete the comment", name, name),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}
