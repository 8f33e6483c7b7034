// Package lint implements potsim's custom static analyzers: mechanical
// enforcement of the determinism, hot-path, and durability invariants
// that the reproduction's guarantees rest on (byte-identical experiment
// tables at any worker count, after kill/resume, and across performance
// rework).
//
// The package deliberately avoids golang.org/x/tools: analyzers are
// built on the standard library's go/ast and go/types, and packages are
// loaded either from `go list -export` output (see Load) or from an
// in-memory file set (tests). The analyzer surface mirrors
// go/analysis closely enough that a future migration is mechanical.
//
// Analyzers honour //potlint: suppression directives placed on the
// flagged line or the line directly above it. A suppression MUST carry
// a one-line justification; a bare directive does not suppress and is
// itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -checks filters.
	Name string
	// Doc is a short description, shown by `potlint -analyzers`.
	Doc string
	// Suppress is the directive name that silences this analyzer at a
	// site (e.g. "ordered" for maporder). Empty means the analyzer
	// cannot be suppressed inline.
	Suppress string
	// Run reports diagnostics for one package through the pass.
	Run func(*Pass) error
}

// A Package is a loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path, used for package gating
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position `json:"pos"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags      *[]Diagnostic
	directives map[int][]directive // line -> directives, package-wide
}

// directive is one parsed //potlint:<name> <justification> comment.
type directive struct {
	name string
	arg  string // justification; empty means the directive is invalid
	pos  token.Pos
}

var directiveRE = regexp.MustCompile(`^//potlint:([a-z]+)(?:[ \t]+(.*))?$`)

// parseDirectives collects every //potlint: comment in the package,
// keyed by line. Positions in one Fset are globally unique per line
// only within a file, so the key is the (filename, line) pair folded
// into the fileset's global line numbering via token.Position offsets;
// to keep it simple we key on the full position string's file:line.
func (p *Pass) directiveAt(line int, file string) []directive {
	if p.directives == nil {
		p.directives = make(map[int][]directive)
		for _, f := range p.Pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := directiveRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := p.Pkg.Fset.Position(c.Pos())
					key := lineKey(pos.Filename, pos.Line)
					p.directives[key] = append(p.directives[key], directive{
						name: m[1],
						arg:  strings.TrimSpace(m[2]),
						pos:  c.Pos(),
					})
				}
			}
		}
	}
	return p.directives[lineKey(file, line)]
}

// lineKey folds a filename and line into one map key. Filenames are
// hashed with FNV-1a so the map stays allocation-light; collisions are
// astronomically unlikely and would only over-suppress one diagnostic.
func lineKey(file string, line int) int {
	h := 2166136261
	for i := 0; i < len(file); i++ {
		h ^= int(file[i])
		h *= 16777619
		h &= 0x7fffffff
	}
	return h ^ line<<1
}

// Suppressed reports whether a directive named name covers pos (same
// line or the line directly above). A directive with an empty
// justification does not suppress; it is reported instead, once, so
// that every suppression in the tree carries its one-line why.
func (p *Pass) Suppressed(pos token.Pos, name string) bool {
	posn := p.Pkg.Fset.Position(pos)
	for _, line := range [2]int{posn.Line, posn.Line - 1} {
		for _, d := range p.directiveAt(line, posn.Filename) {
			if d.name != name {
				continue
			}
			if d.arg == "" {
				*p.diags = append(*p.diags, Diagnostic{
					Pos:      p.Pkg.Fset.Position(d.pos),
					Analyzer: p.Analyzer.Name,
					Message:  fmt.Sprintf("//potlint:%s directive requires a one-line justification", name),
				})
				return false
			}
			return true
		}
	}
	return false
}

// Reportf records a diagnostic at pos unless the site is suppressed by
// the analyzer's directive or sits in a _test.go file (tests are
// allowed wallclock time, global RNG, and allocations by design).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	posn := p.Pkg.Fset.Position(pos)
	if strings.HasSuffix(posn.Filename, "_test.go") {
		return
	}
	if p.Analyzer.Suppress != "" && p.Suppressed(pos, p.Analyzer.Suppress) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      posn,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package and returns the combined
// findings sorted by file, line, column, then analyzer name, so output
// is stable regardless of analyzer registration or package load order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	// Drop exact duplicates (two analyzers can flag one site via shared
	// helpers; the same suppression-missing note can surface twice).
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out, nil
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapOrder, WallClock, FloatEq, AllocFree, SnapErr, SnapFields, AtomicWrite, GoroLeak}
}

// Select filters All() by a comma-separated name list ("" keeps all).
func Select(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: -checks selected no analyzers")
	}
	return out, nil
}

// pathTail returns the last segment of an import path: the package
// gating unit ("potsim/internal/core" -> "core").
func pathTail(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isInternal reports whether the import path sits under an internal/
// tree — the simulation side of the repo, as opposed to cmd/ front-ends
// and examples.
func isInternal(path string) bool {
	return strings.Contains(path, "/internal/") || strings.HasPrefix(path, "internal/")
}

// NewInfo returns a types.Info with every map analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
