package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// WireWidth returns the register-width analyzer. Packet header fields
// occupy fixed-width switch registers in the p4sim Tofino model —
// the pool-version bit is literally one bit of a register pair
// (Appendix B), slot indices address a pool of at most 2^32 slots,
// and worker ids index 16-bit-wide bitmap words. Go's type system
// enforces only the byte-level field widths of the Go struct;
// //switchml:wire bits=N on a struct field declares the narrower
// on-the-wire width, and the analyzer proves that every constant
// stored into — or compared against, in an expression or a switch
// case — the field fits it. It also
// rejects annotations wider than the Go type can hold.
func WireWidth() *Analyzer {
	return &Analyzer{
		Name: "wirewidth",
		Doc:  "constants feeding //switchml:wire bits=N fields must fit N bits",
		Run:  runWireWidth,
	}
}

// wireField is one annotated struct field.
type wireField struct {
	display string
	bits    int
}

func runWireWidth(m *Module) []Diagnostic {
	var diags []Diagnostic
	bad := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos: m.Fset.Position(pos), Analyzer: "wirewidth", Message: fmt.Sprintf(format, args...),
		})
	}

	// Pass 1: collect annotated fields from type declarations.
	fields := make(map[types.Object]wireField)
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						bits, ok := fieldWireBits(fld, m.Fset)
						if !ok {
							continue
						}
						for _, name := range fld.Names {
							obj := pkg.Info.Defs[name]
							if obj == nil {
								continue
							}
							display := fmt.Sprintf("%s.%s.%s", pkg.Types.Name(), ts.Name.Name, name.Name)
							max := typeBits(obj.Type())
							if max == 0 {
								bad(name.Pos(), "//switchml:wire on %s: not an integer field", display)
								continue
							}
							if bits > max {
								bad(name.Pos(), "//switchml:wire bits=%d on %s exceeds its %d-bit Go type", bits, display, max)
								continue
							}
							fields[obj] = wireField{display: display, bits: bits}
						}
					}
				}
			}
		}
	}
	if len(fields) == 0 {
		return diags
	}

	// Pass 2: check constant stores and comparisons module-wide.
	check := func(pos token.Pos, info *types.Info, val ast.Expr, wf wireField) {
		tv, ok := info.Types[val]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
			return
		}
		if constant.Sign(tv.Value) < 0 {
			bad(pos, "negative constant %s stored in unsigned %d-bit wire field %s",
				tv.Value, wf.bits, wf.display)
			return
		}
		var max constant.Value
		if wf.bits == 64 {
			max = constant.MakeUint64(^uint64(0))
		} else {
			max = constant.MakeUint64(1<<uint(wf.bits) - 1)
		}
		if constant.Compare(tv.Value, token.GTR, max) {
			bad(pos, "constant %s overflows the %d-bit wire width of %s",
				tv.Value, wf.bits, wf.display)
		}
	}
	for _, pkg := range m.Packages {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.ASSIGN || len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i, lhs := range n.Lhs {
						sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if wf, ok := fields[addressableObject(info, sel)]; ok {
							check(n.Rhs[i].Pos(), info, n.Rhs[i], wf)
						}
					}
				case *ast.CompositeLit:
					t := exprType(info, n)
					if t == nil {
						return true
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, el := range n.Elts {
						var obj types.Object
						val := el
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								obj = info.Uses[id]
							}
							val = kv.Value
						} else if i < st.NumFields() {
							obj = st.Field(i)
						}
						if wf, ok := fields[obj]; ok {
							check(val.Pos(), info, val, wf)
						}
					}
				case *ast.SwitchStmt:
					// A case clause compares its values against the tag.
					sel, ok := ast.Unparen(n.Tag).(*ast.SelectorExpr)
					if !ok {
						return true
					}
					wf, ok := fields[addressableObject(info, sel)]
					if !ok {
						return true
					}
					for _, stmt := range n.Body.List {
						for _, val := range stmt.(*ast.CaseClause).List {
							check(val.Pos(), info, val, wf)
						}
					}
				case *ast.BinaryExpr:
					switch n.Op {
					case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
					default:
						return true
					}
					pairs := [2][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}}
					for _, p := range pairs {
						sel, ok := ast.Unparen(p[0]).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						if wf, ok := fields[addressableObject(info, sel)]; ok {
							check(p[1].Pos(), info, p[1], wf)
						}
					}
				}
				return true
			})
		}
	}
	return diags
}

// fieldWireBits extracts a //switchml:wire bits=N directive from a
// struct field's doc or trailing comment. Malformed directives are
// reported by collectDirectives; here they are skipped.
func fieldWireBits(fld *ast.Field, fset *token.FileSet) (int, bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		for _, d := range groupDirectives(cg, fset) {
			if d.verb != "wire" {
				continue
			}
			if n, err := parseWireBits(d.args); err == nil {
				return n, true
			}
		}
	}
	return 0, false
}

// typeBits returns the bit width of an integer type, 0 for
// non-integers. Platform-width int/uint count as 64 (the analyzer
// targets 64-bit builds, and a narrower platform only tightens the
// real bound).
func typeBits(t types.Type) int {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0
	}
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	case types.Int64, types.Uint64, types.Int, types.Uint, types.Uintptr:
		return 64
	default:
		return 0
	}
}
