package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// BufOwn returns the pooled-buffer ownership analyzer. Objects
// borrowed from a sync.Pool (or from a module function annotated
// //switchml:acquire) follow three rules inside the borrowing
// function: they must not be referenced after being handed back via
// Put (or a //switchml:release function), a function that both
// borrows and releases must release on every return path reached
// after the borrow, and a borrowed object must not escape into a
// field or package variable while the function also Puts it back — a
// retained alias outlives the recycle and the next borrower sees a
// torn buffer. A fourth rule enforces the batched-I/O contract PR 8
// documents in prose: a block handed to netio's AppendTrain must stay
// untouched until the following Flush, because GSO mode sends
// directly from the caller's storage.
func BufOwn() *Analyzer {
	return &Analyzer{
		Name: "bufown",
		Doc:  "pooled buffers: no use after Put, release on every return path, no retained aliases, no train mutation before Flush",
		Run:  runBufOwn,
	}
}

func runBufOwn(m *Module) []Diagnostic {
	acquireFns, releaseFns := annotatedPoolFns(m)
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: m.Fset.Position(pos), Analyzer: "bufown", Message: fmt.Sprintf(format, args...)})
	}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkBufOwn(m.Fset, pkg, fd, acquireFns, releaseFns, report)
				checkTrainFlush(pkg, fd, report)
			}
		}
	}
	sortDiagnostics(diags)
	return diags
}

// annotatedPoolFns collects the module functions marked
// //switchml:acquire and //switchml:release.
func annotatedPoolFns(m *Module) (acquire, release map[*types.Func]bool) {
	acquire = make(map[*types.Func]bool)
	release = make(map[*types.Func]bool)
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if hasDirective(fd.Doc, m.Fset, "acquire") {
					acquire[obj] = true
				}
				if hasDirective(fd.Doc, m.Fset, "release") {
					release[obj] = true
				}
			}
		}
	}
	return acquire, release
}

// isPoolMethod reports whether fn is the named method on sync.Pool.
func isPoolMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

// acquiredVar returns the variable a statement borrows from a pool:
// `v := pool.Get().(*T)` or `v := GetBuf(...)` with GetBuf annotated
// //switchml:acquire. nil when the statement is not a borrow.
func acquiredVar(pkg *Package, stmt ast.Stmt, acquireFns map[*types.Func]bool) *types.Var {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	rhs := ast.Unparen(as.Rhs[0])
	if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
		rhs = ast.Unparen(ta.X)
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return nil
	}
	callee := staticCallee(pkg.Info, call)
	if callee == nil || (!isPoolMethod(callee, "Get") && !acquireFns[callee]) {
		return nil
	}
	if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := pkg.Info.Uses[id].(*types.Var)
	return v
}

// releasedVar returns the variable a call returns to its pool:
// `pool.Put(v)` or `PutBuf(v)` with PutBuf annotated
// //switchml:release. nil for other calls.
func releasedVar(pkg *Package, call *ast.CallExpr, releaseFns map[*types.Func]bool) *types.Var {
	callee := staticCallee(pkg.Info, call)
	if callee == nil || (!isPoolMethod(callee, "Put") && !releaseFns[callee]) {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	arg := ast.Unparen(call.Args[0])
	if ue, ok := arg.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		arg = ast.Unparen(ue.X)
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pkg.Info.Uses[id].(*types.Var)
	return v
}

// borrowState tracks one pooled variable inside one function.
type borrowState struct {
	v        *types.Var
	getPos   token.Pos
	releases []token.Pos
	deferred bool
}

// checkBufOwn applies the ownership rules to one function body.
func checkBufOwn(fset *token.FileSet, pkg *Package, fd *ast.FuncDecl, acquireFns, releaseFns map[*types.Func]bool, report func(token.Pos, string, ...any)) {
	// Pass 1: borrows and releases.
	borrows := make(map[*types.Var]*borrowState)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if stmt, ok := n.(ast.Stmt); ok {
			if v := acquiredVar(pkg, stmt, acquireFns); v != nil {
				if borrows[v] == nil {
					borrows[v] = &borrowState{v: v, getPos: stmt.Pos()}
				}
			}
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if v := releasedVar(pkg, n, releaseFns); v != nil {
				if b := borrows[v]; b != nil {
					b.releases = append(b.releases, n.Pos())
				}
			}
		case *ast.DeferStmt:
			if v := releasedVar(pkg, n.Call, releaseFns); v != nil {
				if b := borrows[v]; b != nil {
					b.deferred = true
				}
			}
		}
		return true
	})

	// Pass 2: release-on-every-return. Only functions that both
	// borrow and release are "borrowing functions"; a function that
	// never Puts transfers ownership (the mesh hand-off pattern) and
	// is exempt.
	for _, b := range borrows {
		if len(b.releases) == 0 || b.deferred {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || ret.Pos() < b.getPos {
				return true
			}
			covered := false
			for _, rp := range b.releases {
				if rp < ret.Pos() {
					covered = true
				}
			}
			if !covered {
				report(ret.Pos(), "return leaks pooled %s: no Put/release on this path (borrowed at line %d)",
					b.v.Name(), fset.Position(b.getPos).Line)
			}
			return true
		})
	}

	// Pass 3: use-after-release and retained aliases, per statement
	// list so branch-local Puts don't poison the other branch.
	var walkList func(list []ast.Stmt)
	walkList = func(list []ast.Stmt) {
		released := make(map[*types.Var]bool)
		for _, stmt := range list {
			// A fresh borrow or any reassignment revives the name.
			if v := acquiredVar(pkg, stmt, acquireFns); v != nil {
				delete(released, v)
			} else if as, ok := stmt.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
							delete(released, v)
						}
						if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
							delete(released, v)
						}
					}
				}
			}
			// Flag uses of already-released variables in this
			// statement (before recording its own releases, so the
			// releasing call itself is exempt but a second Put is
			// not... a double Put IS a use).
			for v := range released {
				if pos, used := stmtUsesVar(pkg, stmt, v); used {
					report(pos, "%s used after it was returned to the pool", v.Name())
					delete(released, v) // one report per release
				}
			}
			if es, ok := stmt.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if v := releasedVar(pkg, call, releaseFns); v != nil && borrows[v] != nil {
						released[v] = true
					}
				}
			}
		}
		// Recurse into nested blocks.
		for _, stmt := range list {
			ast.Inspect(stmt, func(n ast.Node) bool {
				if bs, ok := n.(*ast.BlockStmt); ok {
					walkList(bs.List)
					return false
				}
				if cc, ok := n.(*ast.CaseClause); ok {
					walkList(cc.Body)
					return false
				}
				if cm, ok := n.(*ast.CommClause); ok {
					walkList(cm.Body)
					return false
				}
				return true
			})
		}
	}
	walkList(fd.Body.List)

	// Pass 4: retained aliases. A borrowing function (one that also
	// releases) must not store the pooled object — or a selector off
	// it — into a struct field or package-level variable.
	for _, b := range borrows {
		if len(b.releases) == 0 && !b.deferred {
			continue // ownership transfer: storing is the point
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) || !exprRootedAt(pkg, rhs, b.v) {
					continue
				}
				lhs := ast.Unparen(as.Lhs[i])
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					report(as.Pos(), "pooled %s escapes into field %s while this function also puts it back",
						b.v.Name(), sel.Sel.Name)
				} else if id, ok := lhs.(*ast.Ident); ok {
					if v, ok := pkg.Info.Uses[id].(*types.Var); ok && isPackageLevel(v) {
						report(as.Pos(), "pooled %s escapes into package variable %s while this function also puts it back",
							b.v.Name(), v.Name())
					}
				}
			}
			return true
		})
	}
}

// stmtUsesVar reports whether the statement references v, returning
// the first use position.
func stmtUsesVar(pkg *Package, stmt ast.Stmt, v *types.Var) (token.Pos, bool) {
	var at token.Pos
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == v {
			at, found = id.Pos(), true
			return false
		}
		return true
	})
	return at, found
}

// exprRootedAt reports whether expr is v, a selector off v, or a
// slice/index of v — an alias of the pooled object.
func exprRootedAt(pkg *Package, expr ast.Expr, v *types.Var) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return pkg.Info.Uses[e] == v
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				return false
			}
			expr = e.X
		default:
			return false
		}
	}
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// checkTrainFlush enforces netio's AppendTrain contract: the block
// argument must not be reassigned between AppendTrain and the next
// Flush in the same statement list — in GSO mode the send at Flush
// reads the caller's storage directly. A staged sub-slice (one run of
// the block) pins the whole block the same way.
func checkTrainFlush(pkg *Package, fd *ast.FuncDecl, report func(token.Pos, string, ...any)) {
	var walkList func(list []ast.Stmt)
	walkList = func(list []ast.Stmt) {
		pending := make(map[string]bool) // block expr paths staged by AppendTrain
		for _, stmt := range list {
			if stmtCallsMethod(stmt, "Flush") {
				for k := range pending {
					delete(pending, k)
				}
			}
			if as, ok := stmt.(*ast.AssignStmt); ok && len(pending) > 0 {
				for _, lhs := range as.Lhs {
					if p := exprPath(lhs); p != "" && pending[p] {
						report(as.Pos(), "%s reassigned between AppendTrain and Flush; the staged train still references it", p)
						delete(pending, p)
					}
				}
			}
			ast.Inspect(stmt, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "AppendTrain" && len(call.Args) > 0 {
					if p := exprPath(call.Args[0]); p != "" {
						pending[p] = true
					}
				}
				return true
			})
		}
		for _, stmt := range list {
			ast.Inspect(stmt, func(n ast.Node) bool {
				if bs, ok := n.(*ast.BlockStmt); ok {
					walkList(bs.List)
					return false
				}
				return true
			})
		}
	}
	walkList(fd.Body.List)
}

// stmtCallsMethod reports whether the statement contains a method
// call with the given selector name.
func stmtCallsMethod(stmt ast.Stmt, name string) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exprPath flattens an ident/selector chain, through any slicing
// ("sh.block[a:b]" is "sh.block"); "" for anything more complex.
func exprPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.SliceExpr:
		return exprPath(e.X)
	}
	return ""
}
