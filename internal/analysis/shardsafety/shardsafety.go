// Package shardsafety enforces the single-kernel ownership invariant:
// every piece of mutable simulation state belongs to exactly one
// kernel, and values owned by a kernel never leak to another execution
// context behind its back. Experiment sweeps run many kernels in
// parallel in one process (experiments.Sweep), and their output is
// byte-identical at any -parallel only while this invariant holds.
//
// Concretely, inside the kernel-driven packages it reports:
//
//   - writes to package-level variables outside init: package state is
//     shared by every kernel in a process, so a kernel callback that
//     mutates it couples concurrently running kernels (and breaks
//     determinism under parallel sweeps).
//   - kernel-owned values (a *sim.Kernel, pooled packets and segments,
//     fluid flows, event payloads, or any struct that hangs off a
//     kernel) escaping into goroutines or package-level state — either
//     directly, or through a same-package helper whose interprocedural
//     summary (internal/analysis/summary) says the argument is
//     go-captured or stored globally.
//   - structs that own two kernels: each kernel's structures belong to
//     that kernel alone.
//
// Package init functions are exempt: they run before any kernel exists.
package shardsafety

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mpichgq/internal/analysis"
	"mpichgq/internal/analysis/summary"
)

const doc = `enforce single-kernel ownership in kernel-driven packages

Reports package-level mutable state written outside init, kernel-owned
values (kernels, pooled packets/segments, fluid flows, event payloads,
kernel-bearing structs) escaping into goroutines or globals — directly
or through helpers — and structs owning two kernels. Package init
functions are exempt.`

// Analyzer is the shardsafety pass.
var Analyzer = &analysis.Analyzer{
	Name: "shardsafety",
	Doc:  doc,
	Run:  run,
}

// scopedPackages is the kernel-driven set: packages whose code runs on
// (or schedules onto) a simulation kernel's event loop. Matches the
// determinism analyzer's scope plus the analysis fixtures (bare paths).
var scopedPackages = map[string]bool{
	"mpichgq/internal/sim":       true,
	"mpichgq/internal/netsim":    true,
	"mpichgq/internal/tcpsim":    true,
	"mpichgq/internal/diffserv":  true,
	"mpichgq/internal/gara":      true,
	"mpichgq/internal/ctrlplane": true,
	"mpichgq/internal/mpi":       true,
	"mpichgq/internal/faults":    true,
	"mpichgq/internal/spans":     true,
}

func scoped(importPath string) bool {
	// Bare paths (no slash) are analysistest fixture packages.
	return scopedPackages[importPath] || !strings.Contains(importPath, "/")
}

func run(pass *analysis.Pass) error {
	if !scoped(pass.ImportPath) {
		return nil
	}
	c := &checker{pass: pass, sums: summary.Compute(pass, nil)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				c.genDecl(d)
			case *ast.FuncDecl:
				if d.Body == nil || exempt(d) {
					continue
				}
				c.funcDecl(d)
			}
		}
	}
	return nil
}

// exempt reports whether fn is a package init function, which runs
// before any kernel exists.
func exempt(fn *ast.FuncDecl) bool {
	return fn.Recv == nil && fn.Name.Name == "init"
}

type checker struct {
	pass *analysis.Pass
	sums *summary.Set
}

// genDecl checks type declarations for structs owning two kernels.
func (c *checker) genDecl(d *ast.GenDecl) {
	if d.Tok != token.TYPE {
		return
	}
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		kernels := 0
		for _, field := range st.Fields.List {
			if !isKernelPtr(c.pass.TypeOf(field.Type)) {
				continue
			}
			n := len(field.Names)
			if n == 0 {
				n = 1 // embedded
			}
			kernels += n
		}
		if kernels > 1 {
			c.pass.Reportf(ts.Pos(),
				"struct %s owns %d kernels; kernel-owned state must belong to one kernel",
				ts.Name.Name, kernels)
		}
	}
}

func (c *checker) funcDecl(fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.assign(n)
		case *ast.IncDecStmt:
			if root := c.rootGlobal(n.X); root != nil {
				c.reportGlobalWrite(n.Pos(), root)
			}
		case *ast.GoStmt:
			c.goStmt(n)
			// Still descend: nested calls inside the goroutine's
			// arguments get their own checks.
		case *ast.CallExpr:
			c.call(n)
		}
		return true
	})
}

// assign reports writes to package-level variables and kernel-owned
// values landing in them.
func (c *checker) assign(s *ast.AssignStmt) {
	global := false
	for _, l := range s.Lhs {
		if root := c.rootGlobal(l); root != nil {
			c.reportGlobalWrite(l.Pos(), root)
			global = true
		}
	}
	if !global {
		return
	}
	for _, r := range s.Rhs {
		c.eachKernelOwnedIdent(r, func(id *ast.Ident, t types.Type) {
			c.pass.Reportf(id.Pos(),
				"kernel-owned %s (%s) is stored into package-level state; shard state must hang off its kernel",
				id.Name, typeLabel(t))
		})
	}
}

// goStmt reports kernel-owned values riding into a spawned goroutine —
// as call arguments, as the method receiver, or captured by the
// function literal's body. Findings anchor at the go statement, so one
// //lint:ignore directive covers every capture of a sanctioned spawn.
func (c *checker) goStmt(s *ast.GoStmt) {
	report := func(id *ast.Ident, t types.Type) {
		c.pass.Reportf(s.Pos(),
			"kernel-owned %s (%s) escapes into a goroutine; only its owning kernel may touch it",
			id.Name, typeLabel(t))
	}
	for _, arg := range s.Call.Args {
		c.eachKernelOwnedIdent(arg, report)
	}
	switch fun := ast.Unparen(s.Call.Fun).(type) {
	case *ast.SelectorExpr:
		c.eachKernelOwnedIdent(fun.X, report)
	case *ast.FuncLit:
		c.eachKernelOwnedIdent(fun.Body, report)
	}
}

// call applies the interprocedural step: an argument (or receiver) that
// a same-package helper's summary says is go-captured or stored into
// package-level state escapes the shard exactly as a direct go
// statement or global store would.
func (c *checker) call(call *ast.CallExpr) {
	fs := c.sums.Callee(call)
	if fs == nil || exempt(fs.Decl) {
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		c.reportEscapeFacts(sel.X, fs.Recv, fs.Fn.Name())
	}
	for i, arg := range call.Args {
		facts, ok := fs.ArgFacts(i, len(call.Args), call.Ellipsis.IsValid())
		if !ok {
			continue
		}
		c.reportEscapeFacts(arg, facts, fs.Fn.Name())
	}
}

func (c *checker) reportEscapeFacts(arg ast.Expr, facts summary.Facts, callee string) {
	if facts&(summary.GoCaptured|summary.StoredGlobal) == 0 {
		return
	}
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return
	}
	t := c.pass.TypeOf(id)
	if !kernelOwned(t) {
		return
	}
	if facts&summary.GoCaptured != 0 {
		c.pass.Reportf(id.Pos(),
			"kernel-owned %s (%s) escapes into a goroutine via %s; only its owning kernel may touch it",
			id.Name, typeLabel(t), callee)
		return
	}
	c.pass.Reportf(id.Pos(),
		"kernel-owned %s (%s) reaches package-level state via %s; shard state must hang off its kernel",
		id.Name, typeLabel(t), callee)
}

// eachKernelOwnedIdent invokes f for every identifier under x that
// denotes a variable of kernel-owned type.
func (c *checker) eachKernelOwnedIdent(x ast.Node, f func(*ast.Ident, types.Type)) {
	seen := map[*types.Var]bool{}
	ast.Inspect(x, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if t := c.pass.TypeOf(id); kernelOwned(t) {
			seen[v] = true
			f(id, t)
		}
		return true
	})
}

// rootGlobal returns the package-level variable a store through x
// mutates, or nil. The blank identifier is not a store.
func (c *checker) rootGlobal(x ast.Expr) *types.Var {
	for {
		switch e := x.(type) {
		case *ast.ParenExpr:
			x = e.X
		case *ast.SelectorExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.SliceExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.Ident:
			if e.Name == "_" {
				return nil
			}
			v, _ := c.pass.ObjectOf(e).(*types.Var)
			if v != nil && v.Parent() == c.pass.Pkg.Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

func (c *checker) reportGlobalWrite(pos token.Pos, v *types.Var) {
	c.pass.Reportf(pos,
		"package-level state %s is written outside init; shard state must hang off its kernel",
		v.Name())
}

// kernelOwnedNames are the named types a simulation kernel owns
// outright: the kernel itself, its pooled event records, pooled network
// packets and TCP segments, and fluid flows. Matching is by type name
// so the analysistest fixtures (structural mirrors of the real types)
// are recognised the same way the real packages are.
var kernelOwnedNames = map[string]bool{
	"Kernel":    true,
	"event":     true,
	"Packet":    true,
	"packet":    true,
	"segment":   true,
	"FluidFlow": true,
}

// kernelOwned reports whether t is a type the single-kernel invariant
// protects: one of the kernel-owned named types, or a struct that
// hangs off a kernel (declares a *Kernel field, like netsim.Network or
// tcpsim.Stack).
func kernelOwned(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	if kernelOwnedNames[named.Obj().Name()] {
		return true
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isKernelPtr(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isKernelPtr reports whether t is *Kernel (any package's — fixtures
// mirror the real type by name).
func isKernelPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Kernel"
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func typeLabel(t types.Type) string {
	if named := namedOf(t); named != nil {
		if _, isPtr := t.(*types.Pointer); isPtr {
			return "*" + named.Obj().Name()
		}
		return named.Obj().Name()
	}
	return t.String()
}
