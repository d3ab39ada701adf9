package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Hotpath returns the per-packet-cost analyzer. Functions annotated
// //switchml:hotpath — the per-packet cycle: the wire codec, the
// switch ingress, the event loop, the UDP endpoints' send and receive
// handlers — and every statically resolvable callee inside the module
// must not allocate: the 2x packet-rate budget of the pooled path
// (BENCH_hotpath.json) only holds while the steady state performs
// zero heap operations. The analyzer flags make/new, growing append,
// string concatenation and conversion, fmt calls, values boxed into
// interfaces, capturing closures, map writes, go statements and
// escaping composite literals. Nor may they read the wall clock
// (time.Now, time.Since, time.Until, telemetry.WallClock): a clock
// read costs as much as decoding the packet, so per-packet code stamps
// from the reading its loop took for the whole burst. Guarded cold
// fallbacks (pool-miss grow paths, error returns) are suppressed with
// //switchml:allow hotpath -- <why>, and each annotated function must
// be backed by a testing.AllocsPerRun test in its package.
func Hotpath() *Analyzer {
	return &Analyzer{
		Name: "hotpath",
		Doc:  "//switchml:hotpath functions and their same-module callees must not allocate or read the wall clock",
		Run:  runHotpath,
	}
}

// funcInfo locates one module function declaration.
type funcInfo struct {
	pkg  *Package
	decl *ast.FuncDecl
}

func runHotpath(m *Module) []Diagnostic { return runHotpathOpt(m, true) }

// runHotpathOpt is the hotpath walk with exemption control: the
// suppress analyzer re-runs it with honorExempt=false to learn which
// findings a function-scope //switchml:allow hotpath is holding back.
func runHotpathOpt(m *Module, honorExempt bool) []Diagnostic {
	funcs := make(map[*types.Func]funcInfo)
	var roots []*types.Func
	exempt := make(map[*types.Func]bool)
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				funcs[obj] = funcInfo{pkg, fd}
				if hasDirective(fd.Doc, m.Fset, "hotpath") {
					roots = append(roots, obj)
				}
				if allowsAnalyzer(fd.Doc, m.Fset, "hotpath") {
					exempt[obj] = true
				}
			}
		}
	}

	var diags []Diagnostic
	visited := make(map[*types.Func]bool)
	var walk func(fn, root *types.Func)
	walk = func(fn, root *types.Func) {
		if visited[fn] || (honorExempt && exempt[fn]) {
			return
		}
		visited[fn] = true
		fi := funcs[fn]
		where := funcDisplayName(fn)
		if fn != root {
			where += fmt.Sprintf(" (on the hot path of %s)", funcDisplayName(root))
		}
		scanAllocs(fi.pkg, fi.decl, func(n ast.Node, msg string) {
			diags = append(diags, Diagnostic{
				Pos:      m.Fset.Position(n.Pos()),
				Analyzer: "hotpath",
				Message:  fmt.Sprintf("%s in %s", msg, where),
			})
		})
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := staticCallee(fi.pkg.Info, call); callee != nil {
				// A wall-clock helper is reported where it is called;
				// its body would only repeat the finding out of reach
				// of the caller's suppression.
				if _, local := funcs[callee]; local && wallClockRead(callee) == "" {
					walk(callee, root)
				}
			}
			return true
		})
	}
	for _, r := range roots {
		walk(r, r)
	}

	// Every annotation must be pinned by a testing.AllocsPerRun test
	// in its package, so the invariant is enforced dynamically too.
	allocTested := make(map[string]bool)
	for _, r := range roots {
		fi := funcs[r]
		dir := fi.pkg.Dir
		if _, ok := allocTested[dir]; !ok {
			allocTested[dir] = dirMentionsAllocsPerRun(dir)
		}
		if !allocTested[dir] {
			diags = append(diags, Diagnostic{
				Pos:      m.Fset.Position(fi.decl.Pos()),
				Analyzer: "hotpath",
				Message: fmt.Sprintf("//switchml:hotpath on %s has no backing testing.AllocsPerRun test in %s",
					funcDisplayName(r), fi.pkg.ImportPath),
			})
		}
	}
	return diags
}

// dirMentionsAllocsPerRun reports whether any test file in dir calls
// testing.AllocsPerRun.
func dirMentionsAllocsPerRun(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil && strings.Contains(string(src), "AllocsPerRun") {
			return true
		}
	}
	return false
}

// funcDisplayName renders pkg.Func or pkg.(Recv).Method.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// staticCallee resolves a call to its target function when that is
// statically known: a plain function, a package-qualified function,
// or a method on a concrete receiver. Interface method calls and
// calls through function values return nil. A method of an
// instantiated generic type resolves to its generic declaration, so
// callers can look its body up.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // field of function type: dynamic
			}
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return nil // dynamic dispatch
			}
			return f.Origin()
		}
		f, _ := info.Uses[fun.Sel].(*types.Func) // pkg-qualified
		return f
	}
	return nil
}

// scanAllocs reports every potential allocation site in one function
// body.
func scanAllocs(pkg *Package, decl *ast.FuncDecl, report func(n ast.Node, msg string)) {
	info := pkg.Info
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			scanCall(info, n, report)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t := exprType(info, idx.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							report(idx, "map write may rehash and allocate")
						}
					}
				}
			}
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					if boxes(info, rhs, exprType(info, n.Lhs[i])) {
						report(rhs, fmt.Sprintf("assignment boxes %s into an interface", typeName(info, rhs)))
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if t := exprType(info, n.X); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(n, "string concatenation allocates")
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n, "address of composite literal escapes to the heap")
				}
			}
		case *ast.FuncLit:
			if capt := capturedVar(info, n); capt != "" {
				report(n, fmt.Sprintf("closure captures %s and allocates", capt))
			}
		case *ast.GoStmt:
			report(n, "go statement allocates a goroutine")
		case *ast.ReturnStmt:
			scanReturn(pkg, decl, n, report)
		case *ast.CompositeLit:
			scanCompositeBoxing(info, n, report)
		}
		return true
	})
}

// scanCall flags allocating calls — make/new builtins, append, string
// conversions, fmt.*, arguments boxed into interface parameters — and
// wall-clock reads.
func scanCall(info *types.Info, call *ast.CallExpr, report func(n ast.Node, msg string)) {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Conversion.
		dst := tv.Type
		if len(call.Args) != 1 {
			return
		}
		src := exprType(info, call.Args[0])
		if src == nil {
			return
		}
		if boxes(info, call.Args[0], dst) {
			report(call, fmt.Sprintf("conversion boxes %s into an interface", src))
			return
		}
		if allocatingStringConversion(src, dst) {
			report(call, fmt.Sprintf("conversion %s -> %s copies and allocates", src, dst))
		}
		return
	}
	if tv.IsBuiltin() {
		name := builtinName(call.Fun)
		switch name {
		case "make":
			report(call, "make allocates")
		case "new":
			report(call, "new allocates")
		case "append":
			report(call, "append may grow its backing array")
		}
		return
	}
	if callee := calleeFunc(info, call); callee != nil && callee.Pkg() != nil {
		if callee.Pkg().Path() == "fmt" {
			report(call, fmt.Sprintf("fmt.%s allocates", callee.Name()))
			return
		}
		if name := wallClockRead(callee); name != "" {
			report(call, name+" reads the wall clock per packet; stamp from the burst's one reading")
			return
		}
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // slice passed whole
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(info, arg, pt) {
			report(arg, fmt.Sprintf("argument boxes %s into an interface parameter", typeName(info, arg)))
		}
	}
}

// wallClockRead names fn when calling it reads the wall clock: the
// time package's Now, Since and Until, and the module's own
// telemetry.WallClock wrapper. It returns "" for everything else.
func wallClockRead(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil || fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	switch {
	case pkg.Path() == "time" && (fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until"),
		pkg.Name() == "telemetry" && fn.Name() == "WallClock":
		return pkg.Name() + "." + fn.Name()
	}
	return ""
}

// scanReturn flags concrete values returned through interface result
// types.
func scanReturn(pkg *Package, decl *ast.FuncDecl, ret *ast.ReturnStmt, report func(n ast.Node, msg string)) {
	obj, ok := pkg.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	results := obj.Type().(*types.Signature).Results()
	if results.Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		if boxes(pkg.Info, r, results.At(i).Type()) {
			report(r, fmt.Sprintf("return boxes %s into an interface result", typeName(pkg.Info, r)))
		}
	}
}

// scanCompositeBoxing flags concrete values stored into interface
// element or field slots of a composite literal.
func scanCompositeBoxing(info *types.Info, lit *ast.CompositeLit, report func(n ast.Node, msg string)) {
	t := exprType(info, lit)
	if t == nil {
		return
	}
	var elemAt func(i int, key ast.Expr) types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elemAt = func(int, ast.Expr) types.Type { return u.Elem() }
	case *types.Array:
		elemAt = func(int, ast.Expr) types.Type { return u.Elem() }
	case *types.Map:
		elemAt = func(int, ast.Expr) types.Type { return u.Elem() }
	case *types.Struct:
		elemAt = func(i int, key ast.Expr) types.Type {
			if id, ok := key.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					return v.Type()
				}
				return nil
			}
			if i < u.NumFields() {
				return u.Field(i).Type()
			}
			return nil
		}
	default:
		return
	}
	for i, el := range lit.Elts {
		val, key := el, ast.Expr(nil)
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			val, key = kv.Value, kv.Key
		}
		if boxes(info, val, elemAt(i, key)) {
			report(val, fmt.Sprintf("composite literal boxes %s into an interface", typeName(info, val)))
		}
	}
}

// capturedVar returns the name of a variable the closure captures
// from its enclosing function, or "" if it captures nothing (a
// capture-free func literal compiles to a static function value and
// does not allocate).
func capturedVar(info *types.Info, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured iff declared outside the literal but not at package
		// scope.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level var
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v.Name()
			return false
		}
		return true
	})
	return captured
}

// boxes reports whether storing expr into a destination of type dst
// heap-allocates an interface box: dst is an interface, expr's type
// is concrete, and the value is not pointer-shaped (pointers, maps,
// channels and funcs are stored in the interface word directly).
func boxes(info *types.Info, expr ast.Expr, dst types.Type) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	if types.IsInterface(tv.Type) {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		if tv.Type.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// allocatingStringConversion reports string<->[]byte/[]rune
// conversions, which copy.
func allocatingStringConversion(src, dst types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(src) && isByteOrRuneSlice(dst)) || (isByteOrRuneSlice(src) && isStr(dst))
}

// calleeFunc returns the called *types.Func for function and method
// calls, nil for builtins, conversions and dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	return staticCallee(info, call)
}

// builtinName returns the name of a builtin call target.
func builtinName(fun ast.Expr) string {
	if id, ok := ast.Unparen(fun).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// exprType returns the type of an expression, nil when unknown.
func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// typeName renders an expression's type for messages.
func typeName(info *types.Info, e ast.Expr) string {
	if t := exprType(info, e); t != nil {
		return t.String()
	}
	return "value"
}
