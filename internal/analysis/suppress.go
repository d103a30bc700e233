package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Suppression policy: a finding may be silenced with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <justification>
//
// either at the end of the offending line or on the line immediately
// above it. The justification is mandatory — a bare directive does not
// suppress anything — and "*" matches every analyzer. The catalogue of
// accepted suppressions lives in docs/static-analysis.md; CI treats an
// unjustified or stale directive as reviewable like any other code.
//
// A directive that no longer silences anything is itself a finding:
// StaleSuppressions reports it, so dead directives get deleted instead
// of quietly granting future violations a free pass.

type suppression struct {
	analyzers []string // nil means malformed (ignored)
}

func (s suppression) matches(name string) bool {
	for _, a := range s.analyzers {
		if a == "*" || a == name {
			return true
		}
	}
	return false
}

// parseSuppression extracts a directive from a single comment's text.
func parseSuppression(text string) (suppression, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), "//lint:ignore ")
	if !ok {
		return suppression{}, false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		// No justification: directive is inert by policy.
		return suppression{}, false
	}
	return suppression{analyzers: strings.Split(fields[0], ",")}, true
}

// A directive is one parsed //lint:ignore comment, with the (file,
// line) span it covers: its own line (trailing-comment form) and the
// following line (standalone form).
type directive struct {
	pos       token.Pos
	file      string
	line      int
	analyzers []string
}

func (d *directive) covers(file string, line int) bool {
	return d.file == file && (line == d.line || line == d.line+1)
}

// collectDirectives parses every //lint:ignore directive in pkg, in
// file/position order.
func collectDirectives(pkg *Package) []*directive {
	var out []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				s, ok := parseSuppression(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, &directive{
					pos:       c.Pos(),
					file:      pos.Filename,
					line:      pos.Line,
					analyzers: s.analyzers,
				})
			}
		}
	}
	return out
}

// MarkSuppressed sets Suppressed on every diagnostic covered by a
// matching //lint:ignore directive, in place.
func MarkSuppressed(pkg *Package, diags []Diagnostic) {
	dirs := collectDirectives(pkg)
	if len(dirs) == 0 {
		return
	}
	for i := range diags {
		pos := pkg.Fset.Position(diags[i].Pos)
		for _, d := range dirs {
			if d.covers(pos.Filename, pos.Line) && (suppression{d.analyzers}).matches(diags[i].Analyzer) {
				diags[i].Suppressed = true
				break
			}
		}
	}
}

// StaleSuppressions reports //lint:ignore directives in pkg that did
// not suppress any diagnostic in diags (which must be RunAll output:
// suppressed findings marked, not dropped). ran lists the analyzers
// that actually executed; a directive naming an analyzer that did not
// run is skipped — its finding may simply not have been looked for.
// When complete is true, ran is the full registered set, so a directive
// naming an analyzer outside it is reported as naming an unknown
// analyzer (a typo would otherwise silently suppress nothing forever).
// Returned diagnostics carry the virtual analyzer name "suppression".
func StaleSuppressions(pkg *Package, diags []Diagnostic, ran []string, complete bool) []Diagnostic {
	ranSet := make(map[string]bool, len(ran))
	for _, name := range ran {
		ranSet[name] = true
	}
	var out []Diagnostic
	for _, dir := range collectDirectives(pkg) {
		checkable := true
		unknown := ""
		for _, name := range dir.analyzers {
			if name == "*" {
				// A blanket directive is checkable against whatever ran.
				continue
			}
			if !ranSet[name] {
				if complete {
					unknown = name
				} else {
					checkable = false
				}
				break
			}
		}
		if unknown != "" {
			out = append(out, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "suppression",
				Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q; fix the name or delete the directive", unknown),
			})
			continue
		}
		if !checkable {
			continue
		}
		used := false
		for i := range diags {
			if !diags[i].Suppressed {
				continue
			}
			pos := pkg.Fset.Position(diags[i].Pos)
			if dir.covers(pos.Filename, pos.Line) && (suppression{dir.analyzers}).matches(diags[i].Analyzer) {
				used = true
				break
			}
		}
		if !used {
			out = append(out, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "suppression",
				Message: fmt.Sprintf("stale //lint:ignore %s directive: it suppresses nothing; delete it",
					strings.Join(dir.analyzers, ",")),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// IsGeneratedFile reports whether f carries the standard "Code
// generated ... DO NOT EDIT." marker; gqlint skips such files.
func IsGeneratedFile(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			t := c.Text
			if strings.HasPrefix(t, "// Code generated ") && strings.HasSuffix(t, " DO NOT EDIT.") {
				return true
			}
		}
	}
	return false
}
