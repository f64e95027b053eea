// Package asttest compares what the deploy path runs with what parsing
// the printed source would give: a tree printer.Stamp rewrote against the
// tree parser.Parse builds from the same text, and the bytecode vm.Compile
// makes of each. Tests use it as the node-for-node gate on stamping.
package asttest

import (
	"fmt"
	"math"
	"reflect"

	"turnstile/internal/ast"
	"turnstile/internal/vm"
)

var (
	nodeInfoType = reflect.TypeOf(ast.NodeInfo{})
	programType  = reflect.TypeOf(ast.Program{})
	nodeType     = reflect.TypeOf((*ast.Node)(nil)).Elem()
	chunkType    = reflect.TypeOf((*vm.Chunk)(nil))
)

// Diff returns the first difference between two trees, or "" when they
// agree in node kinds, fields, positions and resolver annotations
// (VarRef coordinates, ScopeInfo slot names). Node IDs, and so
// Program.MaxID, are not compared, and a nil slice equals an empty one.
func Diff(got, want ast.Node) string {
	return diff("root", reflect.ValueOf(got), reflect.ValueOf(want), nil)
}

// diff compares a and b field by field. When corr is non-nil, AST nodes
// are not descended into: got's node must be the one corr pairs with
// want's (bytecode constants point into trees Diff already compared).
func diff(path string, a, b reflect.Value, corr map[ast.Node]ast.Node) string {
	if a.IsValid() != b.IsValid() {
		return fmt.Sprintf("%s: %v vs %v", path, a, b)
	}
	if !a.IsValid() {
		return ""
	}
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: %s vs %s", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil mismatch (%v vs %v)", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		if corr != nil && a.Type().Implements(nodeType) {
			if corr[a.Interface().(ast.Node)] != b.Interface().(ast.Node) {
				return fmt.Sprintf("%s: refers to a different node (%T at %v vs %T at %v)", path,
					a.Interface(), a.Interface().(ast.Node).Pos(), b.Interface(), b.Interface().(ast.Node).Pos())
			}
			return ""
		}
		if corr != nil && a.Type() == chunkType {
			return diffChunk(path, a.Interface().(*vm.Chunk), b.Interface().(*vm.Chunk), corr)
		}
		if a.Kind() == reflect.Pointer {
			path = fmt.Sprintf("%s(%s)", path, a.Type())
		}
		return diff(path, a.Elem(), b.Elem(), corr)
	case reflect.Struct:
		if a.Type() == nodeInfoType {
			if la, lb := a.FieldByName("Loc").Interface(), b.FieldByName("Loc").Interface(); la != lb {
				return fmt.Sprintf("%s: position %v vs %v", path, la, lb)
			}
			return ""
		}
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			if !f.IsExported() || (a.Type() == programType && f.Name == "MaxID") {
				continue
			}
			if d := diff(path+"."+f.Name, a.Field(i), b.Field(i), corr); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), corr); d != "" {
				return d
			}
		}
		return ""
	case reflect.Float32, reflect.Float64:
		fa, fb := a.Float(), b.Float()
		if fa != fb && !(math.IsNaN(fa) && math.IsNaN(fb)) {
			return fmt.Sprintf("%s: %v vs %v", path, fa, fb)
		}
		return ""
	case reflect.Map:
		return fmt.Sprintf("%s: unexpected map", path)
	default:
		if a.Interface() != b.Interface() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Interface(), b.Interface())
		}
		return ""
	}
}

// nodes lists every node of a tree in walk order.
func nodes(n ast.Node) []ast.Node {
	var out []ast.Node
	ast.Walk(n, func(n ast.Node) bool {
		out = append(out, n)
		return true
	})
	return out
}

// DiffModules returns the first difference between the bytecode compiled
// from two trees that Diff finds equal, or "": chunk by chunk in tree
// order, the instruction streams, charge positions, constants (AST
// constants must be the corresponding nodes), scope layouts and control
// edges.
func DiffModules(gotProg *ast.Program, got *vm.Module, wantProg *ast.Program, want *vm.Module) string {
	gn, wn := nodes(gotProg), nodes(wantProg)
	if len(gn) != len(wn) {
		return fmt.Sprintf("trees differ: %d vs %d nodes", len(gn), len(wn))
	}
	corr := make(map[ast.Node]ast.Node, len(gn))
	for i := range gn {
		corr[gn[i]] = wn[i]
	}
	if d := diffChunk("top", got.Top, want.Top, corr); d != "" {
		return d
	}
	if len(got.Funcs) != len(want.Funcs) {
		return fmt.Sprintf("%d vs %d function chunks", len(got.Funcs), len(want.Funcs))
	}
	for i, n := range gn {
		fl, ok := n.(*ast.FuncLit)
		if !ok {
			continue
		}
		gc, wc := got.Funcs[fl], want.Funcs[wn[i].(*ast.FuncLit)]
		if (gc == nil) != (wc == nil) {
			return fmt.Sprintf("function at %v: compiled in one module only", fl.Pos())
		}
		if gc == nil {
			continue
		}
		if d := diffChunk(fmt.Sprintf("function at %v", fl.Pos()), gc, wc, corr); d != "" {
			return d
		}
	}
	return ""
}

func diffChunk(path string, a, b *vm.Chunk, corr map[ast.Node]ast.Node) string {
	if (a == nil) != (b == nil) {
		return path + ": chunk nil mismatch"
	}
	if a == nil {
		return ""
	}
	return diff(path+"."+a.Name, reflect.ValueOf(*a), reflect.ValueOf(*b), corr)
}

// CheckIDs reports an error unless every node below the root has a unique
// ID below prog.MaxID.
func CheckIDs(prog *ast.Program) error {
	seen := make(map[int]ast.Node)
	for _, n := range nodes(prog)[1:] {
		id := n.NodeID()
		if id < 0 || id >= prog.MaxID {
			return fmt.Errorf("%T at %v: ID %d outside [0, %d)", n, n.Pos(), id, prog.MaxID)
		}
		if prev, dup := seen[id]; dup {
			return fmt.Errorf("%T at %v and %T at %v share ID %d", prev, prev.Pos(), n, n.Pos(), id)
		}
		seen[id] = n
	}
	return nil
}
