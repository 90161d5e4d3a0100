// Package lint is sigil's project-specific analyzer suite. Each analyzer
// encodes an invariant a past PR fixed the hard way — panics that destroyed
// salvageable runs, sink errors silently dropped, map iteration leaking
// nondeterminism into reports, allocations on hot paths, goroutines with
// no join — so the next regression is a build failure instead of a
// debugging session.
//
// A finding can be suppressed where the violation is the documented design
// (e.g. a recovery boundary that re-panics) by annotating the offending
// line, or the line directly above it, with:
//
//	//sigil:lint-allow <analyzer> <reason>
//
// The reason is mandatory in spirit: a bare directive passes, but review
// should treat it like an empty commit message.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"sigil/internal/lint/analysis"
	"sigil/internal/lint/loader"
)

// All is the full suite, in the order the driver runs them.
var All = []*analysis.Analyzer{
	Panicfree,
	Sinkerr,
	Detorder,
	Hotalloc,
	Goleak,
}

// Finding is one resolved diagnostic: analyzer, file position, message.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Apply runs the analyzers over the packages and returns the surviving
// findings in file/line order. Diagnostics on lines carrying (or directly
// below) a matching //sigil:lint-allow directive are dropped.
func Apply(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		allowed := allowedLines(pkg)
		for _, a := range analyzers {
			a := a
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report: func(d analysis.Diagnostic) {
					pos := pkg.Fset.Position(d.Pos)
					if allowed[suppressKey{a.Name, pos.Filename, pos.Line}] {
						return
					}
					out = append(out, Finding{
						Analyzer: a.Name,
						Pos:      pos,
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  d.Message,
					})
				},
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

type suppressKey struct {
	analyzer string
	file     string
	line     int
}

// allowedLines scans a package's comments for //sigil:lint-allow
// directives. A directive covers its own line and the next one, so it
// works both as a trailing comment and on the line above the finding.
func allowedLines(pkg *loader.Package) map[suppressKey]bool {
	m := map[suppressKey]bool{}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "sigil:lint-allow") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "sigil:lint-allow"))
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m[suppressKey{fields[0], pos.Filename, pos.Line}] = true
				m[suppressKey{fields[0], pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	return m
}

// inScope reports whether pkgPath matches one of the path suffixes an
// analyzer is scoped to. Matching by suffix keeps the analyzers honest on
// the analysistest fixtures, whose import paths mirror the real tree under
// a testdata prefix.
func inScope(pkgPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}
