// Package instrument implements Turnstile's Code Instrumentor (§4.3): it
// rewrites an application's AST, injecting DIF Tracker API calls along
// dataflow expressions. In selective mode only the nodes identified as
// privacy-sensitive by the Dataflow Analyzer are instrumented; in
// exhaustive mode every dataflow expression is.
//
// The instrumentor produces a new AST that shares no node with the
// original: nodes that pass through unchanged are copied, keeping their
// IDs and positions. The original is never modified, so a pipeline cache
// can hand it to other goroutines while the output is printed, stamped
// and resolved in place. The instrumented program references the __t
// global installed by interp.InstallTracker (the τ object of Fig. 2b).
package instrument

import (
	"fmt"

	"turnstile/internal/ast"
	"turnstile/internal/policy"
)

// Mode selects the instrumentation strategy of §6.2.
type Mode int

const (
	// Selective instruments only the nodes in the Selection (the paper's
	// selectively-managed configuration).
	Selective Mode = iota
	// Exhaustive instruments every dataflow expression in the program.
	Exhaustive
)

func (m Mode) String() string {
	if m == Exhaustive {
		return "exhaustive"
	}
	return "selective"
}

// Selection is the set of AST node IDs lying on privacy-sensitive code
// paths, as reported by the Dataflow Analyzer.
type Selection map[int]bool

// Options configures an instrumentation run.
type Options struct {
	Mode Mode
	// Selection is required in Selective mode.
	Selection Selection
	// Injections are the policy's labeller injection points for this file.
	Injections []policy.Injection
	// File is the name used to match injections; defaults to Program.File.
	File string
	// TrackerVar is the global name of the tracker object (default "__t").
	TrackerVar string
	// ImplicitFlows enables the experimental implicit-flow instrumentation
	// (the paper's §8 future work): conditional regions are wrapped in
	// pc-label scopes (τ.pushScope / τ.pc / τ.popScope, balanced with
	// try/finally) and assignments route through τ.assign so values written
	// under secret control inherit the branch condition's labels. Requires
	// a tracker with EnableImplicit().
	ImplicitFlows bool
}

// Result reports what the instrumentor did.
type Result struct {
	Program    *ast.Program
	BinaryOps  int // τ.binaryOp rewrites
	Invokes    int // τ.invoke / τ.call rewrites
	Labels     int // τ.label injections
	Tracks     int // τ.track wrappings (exhaustive mode)
	PCScopes   int // implicit-flow scope wrappings
	Statements int // statements visited
	// UnmatchedInjections lists policy injections that matched nothing in
	// this file — usually a stale line number or a renamed object after
	// the application changed (§4.6, maintaining the IFC policy).
	UnmatchedInjections []policy.Injection
}

// Instrument rewrites prog according to opts.
func Instrument(prog *ast.Program, opts Options) (*Result, error) {
	if opts.TrackerVar == "" {
		opts.TrackerVar = "__t"
	}
	if opts.File == "" {
		opts.File = prog.File
	}
	if opts.Mode == Selective && opts.Selection == nil {
		opts.Selection = Selection{}
	}
	ins := &instrumentor{
		opts:    opts,
		maxID:   prog.MaxID,
		nextID:  prog.MaxID,
		res:     &Result{},
		applied: make(map[int]bool),
	}
	out := &ast.Program{
		NodeInfo: prog.NodeInfo,
		File:     prog.File,
		Body:     ins.stmts(prog.Body),
	}
	out.MaxID = ins.nextID
	ins.res.Program = out
	for i, inj := range opts.Injections {
		relevant := inj.File == "" || inj.File == opts.File
		if relevant && !ins.applied[i] {
			ins.res.UnmatchedInjections = append(ins.res.UnmatchedInjections, inj)
		}
	}
	return ins.res, nil
}

type instrumentor struct {
	opts    Options
	maxID   int // IDs below this are original nodes
	nextID  int
	res     *Result
	applied map[int]bool // injection index → matched at least once
}

func (ins *instrumentor) id() int { id := ins.nextID; ins.nextID++; return id }

// keepID is the ID mapping for copies of nodes that appear once in the
// output: they keep their original's ID.
func keepID(id int) int { return id }

// copyExpr copies an original subtree that passes through unchanged.
func (ins *instrumentor) copyExpr(e ast.Expr) ast.Expr { return ast.CopyExpr(e, keepID) }

func (ins *instrumentor) info(pos ast.Pos) ast.NodeInfo {
	return ast.NodeInfo{Loc: pos, ID: ins.id()}
}

// selected reports whether an original node participates in a
// privacy-sensitive path (or everything, in exhaustive mode).
func (ins *instrumentor) selected(n ast.Node) bool {
	id := n.NodeID()
	if id >= ins.maxID {
		return false // synthetic node created by this instrumentor
	}
	if ins.opts.Mode == Exhaustive {
		return true
	}
	return ins.opts.Selection[id]
}

// tau builds a __t.<method>(args...) call expression.
func (ins *instrumentor) tau(pos ast.Pos, method string, args ...ast.Expr) *ast.CallExpr {
	return &ast.CallExpr{
		NodeInfo: ins.info(pos),
		Callee: &ast.MemberExpr{
			NodeInfo: ins.info(pos),
			Object:   &ast.Ident{NodeInfo: ins.info(pos), Name: ins.opts.TrackerVar},
			Property: method,
		},
		Args: args,
	}
}

func (ins *instrumentor) str(pos ast.Pos, s string) *ast.StringLit {
	return &ast.StringLit{NodeInfo: ins.info(pos), Value: s}
}

func (ins *instrumentor) site(pos ast.Pos) *ast.StringLit {
	return ins.str(pos, fmt.Sprintf("%s:%d:%d", ins.opts.File, pos.Line, pos.Col))
}

// injectionFor finds a labeller injection matching a declaration of name at
// the given line.
func (ins *instrumentor) injectionFor(name string, line int) (policy.Injection, bool) {
	for i, inj := range ins.opts.Injections {
		if inj.Object != name {
			continue
		}
		if inj.File != "" && inj.File != ins.opts.File {
			continue
		}
		if inj.Line != 0 && inj.Line != line {
			continue
		}
		ins.applied[i] = true
		return inj, true
	}
	return policy.Injection{}, false
}

// wrapLabel wraps e in __t.label(e, "labeller").
func (ins *instrumentor) wrapLabel(e ast.Expr, labeller string) ast.Expr {
	ins.res.Labels++
	return ins.tau(e.Pos(), "label", e, ins.str(e.Pos(), labeller))
}

// ---------------------------------------------------------------------------
// Statements

func (ins *instrumentor) stmts(in []ast.Stmt) []ast.Stmt {
	out := make([]ast.Stmt, 0, len(in))
	for _, s := range in {
		out = append(out, ins.stmt(s))
	}
	return out
}

func (ins *instrumentor) stmt(s ast.Stmt) ast.Stmt {
	if s == nil {
		return nil
	}
	ins.res.Statements++
	switch x := s.(type) {
	case *ast.VarDecl:
		decls := make([]*ast.Declarator, len(x.Decls))
		for i, d := range x.Decls {
			init := ins.expr(d.Init)
			if init != nil {
				if inj, ok := ins.injectionFor(d.Name, d.Pos().Line); ok {
					init = ins.wrapLabel(init, inj.Labeller)
				}
				if ins.opts.ImplicitFlows {
					init = ins.tau(d.Pos(), "assign", init)
				}
			}
			decls[i] = &ast.Declarator{NodeInfo: d.NodeInfo, Name: d.Name, Init: init}
		}
		return &ast.VarDecl{NodeInfo: x.NodeInfo, Kind: x.Kind, Decls: decls}
	case *ast.FuncDecl:
		return &ast.FuncDecl{NodeInfo: x.NodeInfo, Name: x.Name, Fn: ins.funcLit(x.Fn)}
	case *ast.ExprStmt:
		return &ast.ExprStmt{NodeInfo: x.NodeInfo, X: ins.expr(x.X)}
	case *ast.ReturnStmt:
		return &ast.ReturnStmt{NodeInfo: x.NodeInfo, Value: ins.expr(x.Value)}
	case *ast.IfStmt:
		out := &ast.IfStmt{NodeInfo: x.NodeInfo, Cond: ins.expr(x.Cond),
			Then: ins.stmt(x.Then), Else: ins.stmt(x.Else)}
		if ins.wantPC(x.Cond) {
			out.Cond = ins.tau(x.Cond.Pos(), "pc", out.Cond)
			return ins.pcScope(x.Pos(), out)
		}
		return out
	case *ast.ForStmt:
		out := &ast.ForStmt{NodeInfo: x.NodeInfo, Init: ins.stmt(x.Init),
			Cond: ins.expr(x.Cond), Post: ins.expr(x.Post), Body: ins.stmt(x.Body)}
		if x.Cond != nil && ins.wantPC(x.Cond) {
			out.Cond = ins.tau(x.Cond.Pos(), "pc", out.Cond)
			return ins.pcScope(x.Pos(), out)
		}
		return out
	case *ast.ForInStmt:
		out := &ast.ForInStmt{NodeInfo: x.NodeInfo, Kind: x.Kind, DeclKind: x.DeclKind,
			Decl: x.Decl, Name: x.Name, Object: ins.expr(x.Object), Body: ins.stmt(x.Body)}
		if ins.wantPC(x.Object) {
			out.Object = ins.tau(x.Object.Pos(), "pc", out.Object)
			return ins.pcScope(x.Pos(), out)
		}
		return out
	case *ast.WhileStmt:
		out := &ast.WhileStmt{NodeInfo: x.NodeInfo, Cond: ins.expr(x.Cond), Body: ins.stmt(x.Body)}
		if ins.wantPC(x.Cond) {
			out.Cond = ins.tau(x.Cond.Pos(), "pc", out.Cond)
			return ins.pcScope(x.Pos(), out)
		}
		return out
	case *ast.DoWhileStmt:
		out := &ast.DoWhileStmt{NodeInfo: x.NodeInfo, Body: ins.stmt(x.Body), Cond: ins.expr(x.Cond)}
		if ins.wantPC(x.Cond) {
			out.Cond = ins.tau(x.Cond.Pos(), "pc", out.Cond)
			return ins.pcScope(x.Pos(), out)
		}
		return out
	case *ast.BlockStmt:
		return &ast.BlockStmt{NodeInfo: x.NodeInfo, Body: ins.stmts(x.Body)}
	case *ast.ThrowStmt:
		return &ast.ThrowStmt{NodeInfo: x.NodeInfo, Value: ins.expr(x.Value)}
	case *ast.TryStmt:
		out := &ast.TryStmt{NodeInfo: x.NodeInfo, CatchVar: x.CatchVar}
		out.Body = ins.block(x.Body)
		out.Catch = ins.block(x.Catch)
		out.Finally = ins.block(x.Finally)
		return out
	case *ast.SwitchStmt:
		cases := make([]*ast.SwitchCase, len(x.Cases))
		for i, c := range x.Cases {
			cases[i] = &ast.SwitchCase{NodeInfo: c.NodeInfo, Test: ins.expr(c.Test), Body: ins.stmts(c.Body)}
		}
		return &ast.SwitchStmt{NodeInfo: x.NodeInfo, Disc: ins.expr(x.Disc), Cases: cases}
	case *ast.ClassDecl:
		methods := make([]*ast.ClassMethod, len(x.Methods))
		for i, m := range x.Methods {
			methods[i] = &ast.ClassMethod{NodeInfo: m.NodeInfo, Name: m.Name, Static: m.Static, Fn: ins.funcLit(m.Fn)}
		}
		return &ast.ClassDecl{NodeInfo: x.NodeInfo, Name: x.Name,
			SuperClass: ins.expr(x.SuperClass), Methods: methods}
	default:
		return ast.CopyStmt(s, keepID)
	}
}

func (ins *instrumentor) block(b *ast.BlockStmt) *ast.BlockStmt {
	if b == nil {
		return nil
	}
	return &ast.BlockStmt{NodeInfo: b.NodeInfo, Body: ins.stmts(b.Body)}
}

func (ins *instrumentor) funcLit(fn *ast.FuncLit) *ast.FuncLit {
	if fn == nil {
		return nil
	}
	params := make([]*ast.Param, len(fn.Params))
	for i, p := range fn.Params {
		params[i] = &ast.Param{NodeInfo: p.NodeInfo, Name: p.Name, Rest: p.Rest}
	}
	out := &ast.FuncLit{NodeInfo: fn.NodeInfo, Name: fn.Name, Params: params,
		Arrow: fn.Arrow, Async: fn.Async}
	// parameter injections: result = __t.label(result, "L") prepended
	var prologue []ast.Stmt
	for _, p := range fn.Params {
		if inj, ok := ins.injectionFor(p.Name, p.Pos().Line); ok {
			pos := p.Pos()
			prologue = append(prologue, &ast.ExprStmt{
				NodeInfo: ins.info(pos),
				X: &ast.AssignExpr{
					NodeInfo: ins.info(pos),
					Op:       "=",
					Target:   &ast.Ident{NodeInfo: ins.info(pos), Name: p.Name},
					Value: ins.wrapLabel(
						&ast.Ident{NodeInfo: ins.info(pos), Name: p.Name}, inj.Labeller),
				},
			})
		}
	}
	switch {
	case fn.Body != nil:
		body := ins.block(fn.Body)
		if len(prologue) > 0 {
			body = &ast.BlockStmt{NodeInfo: body.NodeInfo, Body: append(prologue, body.Body...)}
		}
		out.Body = body
	case fn.ExprRet != nil:
		ret := ins.expr(fn.ExprRet)
		if len(prologue) > 0 {
			pos := fn.ExprRet.Pos()
			body := append(prologue, &ast.ReturnStmt{NodeInfo: ins.info(pos), Value: ret})
			out.Body = &ast.BlockStmt{NodeInfo: ins.info(pos), Body: body}
		} else {
			out.ExprRet = ret
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Expressions

// dataflowOps are the binary operators that derive a new value from their
// operands (Fig. 5 binaryOp rule). Comparisons are excluded: their results
// are control-flow data (implicit flows, out of scope per §4.6).
var dataflowOps = map[string]bool{
	"+": true, "-": true, "*": true, "/": true, "%": true, "**": true,
	"&": true, "|": true, "^": true, "<<": true, ">>": true, ">>>": true,
}

// comparisonOps produce control-flow data. They are only instrumented in
// implicit-flow mode, where branch predicates must carry the labels of
// their operands into the pc scope.
var comparisonOps = map[string]bool{
	"==": true, "!=": true, "===": true, "!==": true,
	"<": true, ">": true, "<=": true, ">=": true,
}

func (ins *instrumentor) expr(e ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *ast.Ident, *ast.BoolLit, *ast.NullLit, *ast.UndefinedLit, *ast.ThisExpr:
		return ins.copyExpr(e)
	case *ast.NumberLit:
		if ins.opts.Mode == Exhaustive && ins.selected(x) {
			ins.res.Tracks++
			return ins.tau(x.Pos(), "track", ins.copyExpr(x))
		}
		return ins.copyExpr(e)
	case *ast.StringLit:
		if ins.opts.Mode == Exhaustive && ins.selected(x) && len(x.Value) > 0 {
			ins.res.Tracks++
			return ins.tau(x.Pos(), "track", ins.copyExpr(x))
		}
		return ins.copyExpr(e)
	case *ast.TemplateLit:
		exprs := make([]ast.Expr, len(x.Exprs))
		for i, sub := range x.Exprs {
			exprs[i] = ins.expr(sub)
		}
		out := &ast.TemplateLit{NodeInfo: x.NodeInfo, Quasis: x.Quasis, Exprs: exprs}
		if ins.selected(x) && len(exprs) > 0 {
			// the rendered string derives from the interpolated parts;
			// only side-effect-free reads are re-evaluated as sources
			args := []ast.Expr{out}
			for _, sub := range x.Exprs {
				if c, ok := ins.cloneRead(sub); ok {
					args = append(args, c)
				}
			}
			if len(args) > 1 {
				ins.res.BinaryOps++
				return ins.tau(x.Pos(), "derive", args...)
			}
		}
		return out
	case *ast.ArrayLit:
		elems := make([]ast.Expr, len(x.Elems))
		for i, el := range x.Elems {
			elems[i] = ins.expr(el)
		}
		out := &ast.ArrayLit{NodeInfo: x.NodeInfo, Elems: elems}
		if ins.selected(x) {
			ins.res.Tracks++
			// derive the array's label from its element reads
			args := []ast.Expr{out}
			for _, el := range x.Elems {
				if c, ok := ins.cloneRead(el); ok {
					args = append(args, c)
				}
			}
			return ins.tau(x.Pos(), "derive", args...)
		}
		return out
	case *ast.ObjectLit:
		props := make([]*ast.Property, len(x.Props))
		var sources []ast.Expr
		for i, p := range x.Props {
			np := &ast.Property{NodeInfo: p.NodeInfo, Key: p.Key, Computed: p.Computed, Spread: p.Spread}
			np.KeyExpr = ins.expr(p.KeyExpr)
			np.Value = ins.expr(p.Value)
			props[i] = np
			// property values that are simple reads contribute their labels
			if c, ok := ins.cloneRead(p.Value); ok {
				sources = append(sources, c)
			}
		}
		out := &ast.ObjectLit{NodeInfo: x.NodeInfo, Props: props}
		if ins.selected(x) {
			ins.res.Tracks++
			args := append([]ast.Expr{out}, sources...)
			return ins.tau(x.Pos(), "derive", args...)
		}
		return out
	case *ast.FuncLit:
		return ins.funcLit(x)
	case *ast.CallExpr:
		return ins.call(x)
	case *ast.NewExpr:
		args := make([]ast.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = ins.expr(a)
		}
		return &ast.NewExpr{NodeInfo: x.NodeInfo, Callee: ins.expr(x.Callee), Args: args}
	case *ast.MemberExpr:
		obj := ins.expr(x.Object)
		// exhaustive mode pays the Proxy trap on every property read
		// (§4.4): route the access through τ.member
		if ins.opts.Mode == Exhaustive && ins.selected(x) && !x.Computed {
			ins.res.Tracks++
			return ins.tau(x.Pos(), "member", obj, ins.str(x.Pos(), x.Property))
		}
		return &ast.MemberExpr{NodeInfo: x.NodeInfo, Object: obj,
			Property: x.Property, Index: ins.expr(x.Index), Computed: x.Computed}
	case *ast.BinaryExpr:
		l, r := ins.expr(x.Left), ins.expr(x.Right)
		if ins.selected(x) && (dataflowOps[x.Op] ||
			(ins.opts.ImplicitFlows && comparisonOps[x.Op])) {
			ins.res.BinaryOps++
			return ins.tau(x.Pos(), "binaryOp", ins.str(x.Pos(), x.Op), l, r)
		}
		return &ast.BinaryExpr{NodeInfo: x.NodeInfo, Op: x.Op, Left: l, Right: r}
	case *ast.LogicalExpr:
		return &ast.LogicalExpr{NodeInfo: x.NodeInfo, Op: x.Op,
			Left: ins.expr(x.Left), Right: ins.expr(x.Right)}
	case *ast.UnaryExpr:
		if x.Op == "delete" || x.Op == "typeof" {
			// delete needs a raw member target; typeof of an undeclared
			// identifier must stay syntactic
			return ins.copyExpr(x)
		}
		return &ast.UnaryExpr{NodeInfo: x.NodeInfo, Op: x.Op, X: ins.expr(x.X)}
	case *ast.UpdateExpr:
		return &ast.UpdateExpr{NodeInfo: x.NodeInfo, Op: x.Op, Prefix: x.Prefix, X: ins.copyExpr(x.X)}
	case *ast.AssignExpr:
		target := ins.copyExpr(x.Target) // assignment targets are not rewritten
		val := ins.expr(x.Value)
		// compound assignments derive a value: rewrite a ⊕= b into
		// a = __t.binaryOp("⊕", a, b) on sensitive paths
		if op, isCompound := compoundOp(x.Op); isCompound && ins.selected(x) && dataflowOps[op] {
			ins.res.BinaryOps++
			return &ast.AssignExpr{
				NodeInfo: x.NodeInfo,
				Op:       "=",
				Target:   target,
				Value:    ins.tau(x.Pos(), "binaryOp", ins.str(x.Pos(), op), ins.mustCloneRead(x.Target), val),
			}
		}
		// labeller injections on assignments: x = __t.label(value, "L")
		if id, isIdent := target.(*ast.Ident); isIdent && x.Op == "=" {
			if inj, ok := ins.injectionFor(id.Name, x.Pos().Line); ok {
				val = ins.wrapLabel(val, inj.Labeller)
			}
		}
		if ins.opts.ImplicitFlows && x.Op == "=" {
			val = ins.tau(x.Pos(), "assign", val)
		}
		return &ast.AssignExpr{NodeInfo: x.NodeInfo, Op: x.Op, Target: target, Value: val}
	case *ast.CondExpr:
		return &ast.CondExpr{NodeInfo: x.NodeInfo, Cond: ins.expr(x.Cond),
			Then: ins.expr(x.Then), Else: ins.expr(x.Else)}
	case *ast.SeqExpr:
		exprs := make([]ast.Expr, len(x.Exprs))
		for i, sub := range x.Exprs {
			exprs[i] = ins.expr(sub)
		}
		return &ast.SeqExpr{NodeInfo: x.NodeInfo, Exprs: exprs}
	case *ast.SpreadExpr:
		return &ast.SpreadExpr{NodeInfo: x.NodeInfo, X: ins.expr(x.X)}
	case *ast.AwaitExpr:
		return &ast.AwaitExpr{NodeInfo: x.NodeInfo, X: ins.expr(x.X)}
	}
	return e
}

// call rewrites a call expression into τ.invoke / τ.call when selected.
func (ins *instrumentor) call(x *ast.CallExpr) ast.Expr {
	args := make([]ast.Expr, len(x.Args))
	hasSpread := false
	for i, a := range x.Args {
		args[i] = ins.expr(a)
		if _, sp := a.(*ast.SpreadExpr); sp {
			hasSpread = true
		}
	}
	if !ins.selected(x) || hasSpread {
		// spread calls stay native: τ.invoke takes a literal args array and
		// the interpreter's spread handling is already transparent
		return &ast.CallExpr{NodeInfo: x.NodeInfo, Callee: ins.expr(x.Callee), Args: args}
	}
	pos := x.Pos()
	argArr := &ast.ArrayLit{NodeInfo: ins.info(pos), Elems: args}
	switch callee := x.Callee.(type) {
	case *ast.MemberExpr:
		if isTrackerRef(callee.Object, ins.opts.TrackerVar) {
			return &ast.CallExpr{NodeInfo: x.NodeInfo, Callee: ins.expr(x.Callee), Args: args}
		}
		if !callee.Computed {
			ins.res.Invokes++
			return ins.tau(pos, "invoke", ins.expr(callee.Object), ins.str(pos, callee.Property), argArr, ins.site(pos))
		}
		ins.res.Invokes++
		// computed method call foo[x](y): sound over-approximation — invoke
		// through a dynamic name (§4.5)
		return ins.tau(pos, "invoke", ins.expr(callee.Object), ins.expr(callee.Index), argArr, ins.site(pos))
	case *ast.Ident:
		if callee.Name == ins.opts.TrackerVar || callee.Name == "require" {
			return &ast.CallExpr{NodeInfo: x.NodeInfo, Callee: ins.copyExpr(callee), Args: args}
		}
		ins.res.Invokes++
		return ins.tau(pos, "call", ins.copyExpr(callee), argArr, ins.site(pos))
	default:
		ins.res.Invokes++
		return ins.tau(pos, "call", ins.expr(x.Callee), argArr, ins.site(pos))
	}
}

// wantPC reports whether a branch condition should open a pc scope: the
// implicit mode is on and the condition touches the sensitive selection
// (always, in exhaustive mode).
func (ins *instrumentor) wantPC(cond ast.Expr) bool {
	if !ins.opts.ImplicitFlows || cond == nil {
		return false
	}
	if ins.opts.Mode == Exhaustive {
		return true
	}
	found := false
	ast.Walk(cond, func(n ast.Node) bool {
		if ins.opts.Selection[n.NodeID()] {
			found = true
			return false
		}
		return true
	})
	return found
}

// pcScope wraps a conditional statement in a balanced pc scope:
//
//	__t.pushScope();
//	try { <stmt> } finally { __t.popScope(); }
func (ins *instrumentor) pcScope(pos ast.Pos, stmt ast.Stmt) ast.Stmt {
	ins.res.PCScopes++
	push := &ast.ExprStmt{NodeInfo: ins.info(pos), X: ins.tau(pos, "pushScope")}
	pop := &ast.ExprStmt{NodeInfo: ins.info(pos), X: ins.tau(pos, "popScope")}
	try := &ast.TryStmt{
		NodeInfo: ins.info(pos),
		Body:     &ast.BlockStmt{NodeInfo: ins.info(pos), Body: []ast.Stmt{stmt}},
		Finally:  &ast.BlockStmt{NodeInfo: ins.info(pos), Body: []ast.Stmt{pop}},
	}
	return &ast.BlockStmt{NodeInfo: ins.info(pos), Body: []ast.Stmt{push, try}}
}

func isTrackerRef(e ast.Expr, trackerVar string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == trackerVar
}

func compoundOp(op string) (string, bool) {
	if len(op) >= 2 && op[len(op)-1] == '=' && op != "==" && op != "===" && op != "!=" && op != "!==" && op != "<=" && op != ">=" {
		base := op[:len(op)-1]
		if base == "" || base == "&&" || base == "||" || base == "??" {
			return "", false
		}
		return base, true
	}
	return "", false
}

// cloneRead duplicates a side-effect-free read expression (identifier,
// member chain, this, literal) with fresh node IDs, so the copy can appear
// elsewhere in the tree. It declines expressions with potential side
// effects (calls, assignments, updates).
func (ins *instrumentor) cloneRead(e ast.Expr) (ast.Expr, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		return &ast.Ident{NodeInfo: ins.info(x.Pos()), Name: x.Name}, true
	case *ast.ThisExpr:
		return &ast.ThisExpr{NodeInfo: ins.info(x.Pos())}, true
	case *ast.StringLit:
		return &ast.StringLit{NodeInfo: ins.info(x.Pos()), Value: x.Value}, true
	case *ast.NumberLit:
		return &ast.NumberLit{NodeInfo: ins.info(x.Pos()), Value: x.Value}, true
	case *ast.MemberExpr:
		obj, ok := ins.cloneRead(x.Object)
		if !ok {
			return nil, false
		}
		out := &ast.MemberExpr{NodeInfo: ins.info(x.Pos()), Object: obj,
			Property: x.Property, Computed: x.Computed}
		if x.Computed {
			idx, ok := ins.cloneRead(x.Index)
			if !ok {
				return nil, false
			}
			out.Index = idx
		}
		return out, true
	}
	return nil, false
}

// mustCloneRead is cloneRead for assignment targets (Ident or
// MemberExpr). A target with a side-effecting part, such as a[f()], is
// copied whole with fresh IDs: the output re-evaluates it, as the printed
// source always has.
func (ins *instrumentor) mustCloneRead(e ast.Expr) ast.Expr {
	if c, ok := ins.cloneRead(e); ok {
		return c
	}
	return ast.CopyExpr(e, func(int) int { return ins.id() })
}
