package analyzers

import (
	"go/ast"
	"go/token"
	"strings"
)

// pslint directives are line comments of the form
//
//	//pslint:<name> <reason>
//
// Suppression directives (nondeterministic-ok, own-ok, lifetime-ok)
// apply to findings on the directive's own line or on the line directly
// below it, so both trailing and preceding placement work:
//
//	for k := range m { // pslint:nondeterministic-ok keys drained into a sorted slice
//
//	//pslint:nondeterministic-ok values are summed; the order cannot reach the output
//	for _, v := range m {
//
// A suppression without a reason earns its own "needs a reason"
// finding, so every silenced finding documents why the invariant may be
// broken there.

const directivePrefix = "pslint:"

// directive is one parsed //pslint: comment.
type directive struct {
	name   string // "pooled", "nondeterministic-ok", ...
	reason string // text after the name, "" when absent
	line   int    // line the comment sits on
	pos    token.Pos
}

// directiveIndex holds one file's directives keyed by line.
type directiveIndex struct {
	byLine map[int][]directive
}

// parseDirectives scans every comment of the file for pslint
// directives. Both "//pslint:x" and "// pslint:x" spellings parse, the
// former matching the Go toolchain's directive convention.
func parseDirectives(fset *token.FileSet, file *ast.File) *directiveIndex {
	idx := &directiveIndex{byLine: map[int][]directive{}}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, directivePrefix)
			name, reason, _ := strings.Cut(rest, " ")
			line := fset.Position(c.Pos()).Line
			idx.byLine[line] = append(idx.byLine[line], directive{
				name:   name,
				reason: strings.TrimSpace(reason),
				line:   line,
				pos:    c.Pos(),
			})
		}
	}
	return idx
}

// fileFor returns the syntax file containing pos, or nil.
func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// directivesFor returns (lazily building) the directive index of the
// file containing pos.
func (p *Pass) directivesFor(pos token.Pos) *directiveIndex {
	f := p.fileFor(pos)
	if f == nil {
		return &directiveIndex{byLine: map[int][]directive{}}
	}
	if p.directives == nil {
		p.directives = map[*ast.File]*directiveIndex{}
	}
	idx, ok := p.directives[f]
	if !ok {
		idx = parseDirectives(p.Fset, f)
		p.directives[f] = idx
	}
	return idx
}

// suppression looks for a named suppression directive covering pos: on
// the same line, or on the line directly above. It returns the
// directive and whether one was found.
func (p *Pass) suppression(pos token.Pos, name string) (directive, bool) {
	idx := p.directivesFor(pos)
	line := p.Fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		for _, d := range idx.byLine[l] {
			if d.name == name {
				return d, true
			}
		}
	}
	return directive{}, false
}

// hasDirective reports whether the function's doc comment carries the
// named directive (e.g. //pslint:pooled).
func hasDirective(fd *ast.FuncDecl, name string) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		rest, ok := strings.CutPrefix(text, directivePrefix)
		if !ok {
			continue
		}
		dname, _, _ := strings.Cut(rest, " ")
		if dname == name {
			return true
		}
	}
	return false
}
