package vm

import (
	"turnstile/internal/ast"
)

// Compile translates a parsed (and normally resolved) program into a
// Module. Compilation is total: constructs without a native opcode
// compile to OpEvalExpr/OpExecStmt delegation instructions that hand the
// single node back to the tree-walker, so any program the tree-walker
// accepts compiles, and rare constructs keep tree-walker semantics by
// construction.
//
// Charge discipline: the tree-walker charges one step at the entry of
// every statement and expression node, and error/budget attribution
// depends on the order of those charges. The compiler therefore carries a
// `pending` list of charge positions, appends the node's position exactly
// where the tree-walker would charge it, and fuses the list onto the next
// emitted instruction. Pending charges are flushed (onto an OpNop)
// before binding any jump target so a charge can never leak across a
// control-flow join onto a path that would not have executed it.
// Delegated nodes get no pending entry charge: eval/execStmt charge
// their own entry when the executor calls back into the tree-walker.
func Compile(prog *ast.Program) *Module {
	mb := &moduleBuilder{mod: &Module{Funcs: make(map[*ast.FuncLit]*Chunk)}}
	mb.mod.Top = mb.compileChunk(prog.Body, "<top>", nil)
	for _, s := range prog.Body {
		mb.sweepStmt(s)
	}
	return mb.mod
}

type moduleBuilder struct {
	mod *Module
}

func (mb *moduleBuilder) compileChunk(body []ast.Stmt, name string, exprRet ast.Expr) *Chunk {
	cc := &chunkCompiler{mb: mb, ch: &Chunk{Name: name}}
	if exprRet != nil {
		r := cc.expr(exprRet)
		cc.emit(OpRet, r, 0, 0, 0)
	} else {
		cc.stmts(body)
		cc.flush()
	}
	cc.ch.NumRegs = int(cc.maxtmp)
	return cc.ch
}

// chunkFor compiles (once) the body chunk for a function literal.
func (mb *moduleBuilder) chunkFor(fl *ast.FuncLit) *Chunk {
	if ch, ok := mb.mod.Funcs[fl]; ok {
		return ch
	}
	name := fl.Name
	if name == "" {
		name = "<anon>"
	}
	var ch *Chunk
	if fl.ExprRet != nil {
		ch = mb.compileChunk(nil, name, fl.ExprRet)
	} else {
		ch = mb.compileChunk(fl.Body.Body, name, nil)
	}
	ast.Walk(fl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "arguments" {
			ch.NeedsArguments = true
			return false
		}
		return !ch.NeedsArguments
	})
	ch.NoCapture = chunkCannotCaptureEnv(ch)
	mb.mod.Funcs[fl] = ch
	return ch
}

// chunkCannotCaptureEnv scans a compiled body for any opcode that could
// hand out a reference to the call environment: closure creation,
// function-declaration hoisting, or a delegated tree-walk region / try
// sub-chunk (whose ASTs may contain function literals). When none exist
// the environment is provably dead after the call returns.
func chunkCannotCaptureEnv(ch *Chunk) bool {
	for _, in := range ch.Code {
		switch in.Op {
		case OpClosure, OpHoist, OpEvalExpr, OpExecStmt, OpTry:
			return false
		}
	}
	return true
}

type loopCtx struct {
	depth      int32 // envDepth inside the loop (after its header scope)
	breakJumps []int
	contJumps  []int
	breakEdges []int
	contEdges  []int
}

type chunkCompiler struct {
	mb       *moduleBuilder
	ch       *Chunk
	pending  []ast.Pos
	ntmp     int32
	maxtmp   int32
	envDepth int32
	loops    []*loopCtx
}

func (cc *chunkCompiler) charge(p ast.Pos) { cc.pending = append(cc.pending, p) }

func (cc *chunkCompiler) emit(op Op, a, b, c, d int32) int {
	in := Instr{Op: op, A: a, B: b, C: c, D: d}
	if n := len(cc.pending); n > 0 {
		in.CIdx = int32(len(cc.ch.Charges))
		in.CN = int32(n)
		cc.ch.Charges = append(cc.ch.Charges, cc.pending...)
		cc.pending = cc.pending[:0]
	}
	cc.ch.Code = append(cc.ch.Code, in)
	return len(cc.ch.Code) - 1
}

// flush materializes pending charges onto a no-op so a following label
// never inherits straight-line charges.
func (cc *chunkCompiler) flush() {
	if len(cc.pending) > 0 {
		cc.emit(OpNop, 0, 0, 0, 0)
	}
}

// bind flushes pending charges and returns the pc of the next instruction
// as a jump target.
func (cc *chunkCompiler) bind() int32 {
	cc.flush()
	return int32(len(cc.ch.Code))
}

func (cc *chunkCompiler) push() int32 {
	r := cc.ntmp
	cc.ntmp++
	if cc.ntmp > cc.maxtmp {
		cc.maxtmp = cc.ntmp
	}
	return r
}

func (cc *chunkCompiler) konst(v any) int32 {
	cc.ch.Consts = append(cc.ch.Consts, v)
	return int32(len(cc.ch.Consts) - 1)
}

func (cc *chunkCompiler) scopeIdx(s *ast.ScopeInfo) int32 {
	cc.ch.Scopes = append(cc.ch.Scopes, s)
	return int32(len(cc.ch.Scopes) - 1)
}

func (cc *chunkCompiler) patchJump(j int, target int32) {
	in := &cc.ch.Code[j]
	if in.Op == OpJump {
		in.A = target
	} else {
		in.B = target
	}
}

func (cc *chunkCompiler) addEdge(popN int32) int {
	cc.ch.Edges = append(cc.ch.Edges, CtrlEdge{PopN: popN, PC: -1})
	return len(cc.ch.Edges) - 1
}

// ctrlEdges allocates break/continue routing edges for a delegated
// statement or try instruction, targeting the innermost in-chunk loop.
// Outside any loop, completions propagate out of the chunk (-1).
func (cc *chunkCompiler) ctrlEdges() (int32, int32) {
	if len(cc.loops) == 0 {
		return -1, -1
	}
	l := cc.loops[len(cc.loops)-1]
	n := cc.envDepth - l.depth
	be := cc.addEdge(n)
	l.breakEdges = append(l.breakEdges, be)
	ce := cc.addEdge(n)
	l.contEdges = append(l.contEdges, ce)
	return int32(be), int32(ce)
}

func (cc *chunkCompiler) closeLoop(l *loopCtx, cont, exit int32) {
	for _, j := range l.breakJumps {
		cc.patchJump(j, exit)
	}
	for _, j := range l.contJumps {
		cc.patchJump(j, cont)
	}
	for _, e := range l.breakEdges {
		cc.ch.Edges[e].PC = exit
	}
	for _, e := range l.contEdges {
		cc.ch.Edges[e].PC = cont
	}
	cc.loops = cc.loops[:len(cc.loops)-1]
}

// ---------------------------------------------------------------------------
// Statements

// stmts compiles a statement list with the tree-walker's hoisting pass:
// function declarations are defined (in order) before any statement runs.
func (cc *chunkCompiler) stmts(list []ast.Stmt) {
	for _, s := range list {
		if fd, ok := s.(*ast.FuncDecl); ok {
			proto := &FuncProto{Name: fd.Name, Ref: fd.Ref, Decl: fd.Fn, Chunk: cc.mb.chunkFor(fd.Fn)}
			cc.emit(OpHoist, 0, cc.konst(proto), 0, 0)
		}
	}
	for _, s := range list {
		cc.stmt(s)
	}
}

func (cc *chunkCompiler) stmt(s ast.Stmt) {
	save := cc.ntmp
	cc.stmtInner(s)
	cc.ntmp = save
}

func (cc *chunkCompiler) stmtInner(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.VarDecl:
		cc.charge(x.Pos())
		for _, d := range x.Decls {
			var r int32
			if d.Init != nil {
				r = cc.expr(d.Init)
			} else {
				r = cc.push()
				cc.emit(OpUndefV, r, 0, 0, 0)
			}
			site := &DefineSite{Name: d.Name, Ref: d.Ref, Const: x.Kind == ast.DeclConst}
			cc.emit(OpDefine, r, cc.konst(site), 0, 0)
			cc.ntmp = r
		}
	case *ast.FuncDecl:
		// Hoisted by stmts(); only the entry charge remains.
		cc.charge(x.Pos())
	case *ast.ExprStmt:
		cc.charge(x.Pos())
		cc.expr(x.X)
	case *ast.ReturnStmt:
		cc.charge(x.Pos())
		if x.Value != nil {
			r := cc.expr(x.Value)
			cc.emit(OpRet, r, 0, 0, 0)
		} else {
			cc.emit(OpRetUndef, 0, 0, 0, 0)
		}
	case *ast.IfStmt:
		cc.charge(x.Pos())
		r := cc.expr(x.Cond)
		cc.ntmp = r
		j := cc.emit(OpJumpUnless, r, -1, 0, 0)
		cc.stmt(x.Then)
		if x.Else != nil {
			j2 := cc.emit(OpJump, -1, 0, 0, 0)
			cc.patchJump(j, cc.bind())
			cc.stmt(x.Else)
			cc.patchJump(j2, cc.bind())
		} else {
			cc.patchJump(j, cc.bind())
		}
	case *ast.BlockStmt:
		cc.charge(x.Pos())
		cc.emit(OpPushScope, 0, cc.scopeIdx(x.Scope), 0, 0)
		cc.envDepth++
		cc.stmts(x.Body)
		cc.emit(OpPopScope, 0, 0, 0, 0)
		cc.envDepth--
	case *ast.WhileStmt:
		cc.charge(x.Pos())
		l := &loopCtx{depth: cc.envDepth}
		cc.loops = append(cc.loops, l)
		head := cc.bind()
		cc.charge(x.Pos()) // per-iteration step, like the tree-walker's loop head
		r := cc.expr(x.Cond)
		cc.ntmp = r
		j := cc.emit(OpJumpUnless, r, -1, 0, 0)
		l.breakJumps = append(l.breakJumps, j)
		cc.stmt(x.Body)
		cc.emit(OpJump, head, 0, 0, 0)
		cc.closeLoop(l, head, cc.bind())
	case *ast.DoWhileStmt:
		cc.charge(x.Pos())
		l := &loopCtx{depth: cc.envDepth}
		cc.loops = append(cc.loops, l)
		head := cc.bind()
		cc.charge(x.Pos())
		cc.stmt(x.Body)
		cont := cc.bind()
		r := cc.expr(x.Cond)
		cc.ntmp = r
		cc.emit(OpJumpIf, r, head, 0, 0)
		cc.closeLoop(l, cont, cc.bind())
	case *ast.ForStmt:
		cc.charge(x.Pos())
		cc.emit(OpPushScope, 0, cc.scopeIdx(x.Scope), 0, 0)
		cc.envDepth++
		perIter := false
		if x.Init != nil {
			if vd, ok := x.Init.(*ast.VarDecl); ok && vd.Kind != ast.DeclVar {
				perIter = true
			}
			cc.stmt(x.Init)
		}
		l := &loopCtx{depth: cc.envDepth}
		cc.loops = append(cc.loops, l)
		head := cc.bind()
		cc.charge(x.Pos())
		if x.Cond != nil {
			r := cc.expr(x.Cond)
			cc.ntmp = r
			j := cc.emit(OpJumpUnless, r, -1, 0, 0)
			l.breakJumps = append(l.breakJumps, j)
		}
		cc.stmt(x.Body)
		cont := cc.bind()
		if perIter {
			cc.emit(OpIterCopy, 0, 0, 0, 0)
		}
		if x.Post != nil {
			r := cc.expr(x.Post)
			cc.ntmp = r
		}
		cc.emit(OpJump, head, 0, 0, 0)
		cc.closeLoop(l, cont, cc.bind())
		cc.emit(OpPopScope, 0, 0, 0, 0)
		cc.envDepth--
	case *ast.BreakStmt:
		cc.charge(x.Pos())
		cc.ctrlStmt(1)
	case *ast.ContinueStmt:
		cc.charge(x.Pos())
		cc.ctrlStmt(2)
	case *ast.ThrowStmt:
		cc.charge(x.Pos())
		r := cc.expr(x.Value)
		cc.emit(OpThrow, r, 0, 0, 0)
	case *ast.TryStmt:
		cc.charge(x.Pos())
		ti := &TryInfo{Node: x}
		ti.Body = cc.mb.compileChunk(x.Body.Body, "<try>", nil)
		if x.Catch != nil {
			ti.Catch = cc.mb.compileChunk(x.Catch.Body, "<catch>", nil)
		}
		if x.Finally != nil {
			ti.Finally = cc.mb.compileChunk(x.Finally.Body, "<finally>", nil)
		}
		be, ce := cc.ctrlEdges()
		cc.emit(OpTry, cc.konst(ti), be, ce, 0)
	case *ast.EmptyStmt:
		cc.charge(x.Pos())
	default:
		// SwitchStmt, ForInStmt, ClassDecl and anything future: delegate
		// the whole node to the tree-walker. No entry charge — execStmt
		// charges its own.
		cc.delegateStmt(s)
	}
}

// ctrlStmt compiles break (kind 1) / continue (kind 2): a static jump to
// the innermost in-chunk loop, or a chunk completion when the loop (if
// any) lives in an enclosing chunk.
func (cc *chunkCompiler) ctrlStmt(kind int32) {
	if len(cc.loops) == 0 {
		cc.emit(OpCtrl, kind, 0, 0, 0)
		return
	}
	l := cc.loops[len(cc.loops)-1]
	if n := cc.envDepth - l.depth; n > 0 {
		cc.emit(OpPopN, n, 0, 0, 0)
	}
	j := cc.emit(OpJump, -1, 0, 0, 0)
	if kind == 1 {
		l.breakJumps = append(l.breakJumps, j)
	} else {
		l.contJumps = append(l.contJumps, j)
	}
}

func (cc *chunkCompiler) delegateStmt(s ast.Stmt) {
	be, ce := cc.ctrlEdges()
	cc.emit(OpExecStmt, cc.konst(s), be, ce, 0)
}

// ---------------------------------------------------------------------------
// Expressions
//
// Convention: every case allocates its destination register first,
// compiles children into higher temporaries, and releases them
// (ntmp = dst+1) before returning, so sibling expressions land in
// consecutive registers.

func (cc *chunkCompiler) expr(e ast.Expr) int32 {
	switch x := e.(type) {
	case *ast.Ident:
		cc.charge(x.Pos())
		dst := cc.push()
		cc.emit(OpIdent, dst, cc.konst(x), 0, 0)
		return dst
	case *ast.NumberLit:
		cc.charge(x.Pos())
		dst := cc.push()
		cc.emit(OpConst, dst, cc.konst(x.Value), 0, 0)
		return dst
	case *ast.StringLit:
		cc.charge(x.Pos())
		dst := cc.push()
		cc.emit(OpConst, dst, cc.konst(x.Value), 0, 0)
		return dst
	case *ast.BoolLit:
		cc.charge(x.Pos())
		dst := cc.push()
		cc.emit(OpConst, dst, cc.konst(x.Value), 0, 0)
		return dst
	case *ast.NullLit:
		cc.charge(x.Pos())
		dst := cc.push()
		cc.emit(OpNullV, dst, 0, 0, 0)
		return dst
	case *ast.UndefinedLit:
		cc.charge(x.Pos())
		dst := cc.push()
		cc.emit(OpUndefV, dst, 0, 0, 0)
		return dst
	case *ast.ThisExpr:
		cc.charge(x.Pos())
		dst := cc.push()
		cc.emit(OpThis, dst, cc.konst(x), 0, 0)
		return dst
	case *ast.TemplateLit:
		cc.charge(x.Pos())
		dst := cc.push()
		base := cc.ntmp
		for _, sub := range x.Exprs {
			cc.expr(sub)
		}
		cc.emit(OpTemplate, dst, base, int32(len(x.Exprs)), cc.konst(x))
		cc.ntmp = dst + 1
		return dst
	case *ast.ArrayLit:
		if hasSpread(x.Elems) {
			return cc.delegate(e)
		}
		cc.charge(x.Pos())
		dst := cc.push()
		base := cc.ntmp
		for _, el := range x.Elems {
			cc.expr(el)
		}
		cc.emit(OpArray, dst, base, int32(len(x.Elems)), cc.konst(x))
		cc.ntmp = dst + 1
		return dst
	case *ast.ObjectLit:
		for _, p := range x.Props {
			if p.Spread || p.Computed {
				return cc.delegate(e)
			}
		}
		cc.charge(x.Pos())
		dst := cc.push()
		cc.emit(OpNewObject, dst, cc.konst(x), 0, 0)
		for _, p := range x.Props {
			v := cc.expr(p.Value)
			cc.emit(OpSetProp, dst, v, cc.konst(p.Key), 0)
			cc.ntmp = dst + 1
		}
		return dst
	case *ast.FuncLit:
		cc.charge(x.Pos())
		dst := cc.push()
		proto := &FuncProto{Name: x.Name, Decl: x, Chunk: cc.mb.chunkFor(x)}
		cc.emit(OpClosure, dst, cc.konst(proto), 0, 0)
		return dst
	case *ast.MemberExpr:
		cc.charge(x.Pos())
		dst := cc.push()
		o := cc.expr(x.Object)
		if x.Computed {
			i := cc.expr(x.Index)
			cc.emit(OpMemberGetC, dst, o, i, cc.konst(x))
		} else {
			cc.emit(OpMemberGet, dst, o, cc.konst(x), 0)
		}
		cc.ntmp = dst + 1
		return dst
	case *ast.CallExpr:
		return cc.call(x)
	case *ast.BinaryExpr:
		cc.charge(x.Pos())
		dst := cc.push()
		l := cc.expr(x.Left)
		r := cc.expr(x.Right)
		var op Op
		switch x.Op {
		case "+":
			op = OpAdd
		case "-":
			op = OpSub
		case "*":
			op = OpMul
		case "/":
			op = OpDiv
		case "%":
			op = OpMod
		case "<":
			op = OpCmpLt
		case ">":
			op = OpCmpGt
		case "<=":
			op = OpCmpLe
		case ">=":
			op = OpCmpGe
		case "===":
			op = OpStrictEq
		case "!==":
			op = OpStrictNeq
		default:
			op = OpBinOp
		}
		cc.emit(op, dst, l, r, cc.konst(x))
		cc.ntmp = dst + 1
		return dst
	case *ast.LogicalExpr:
		cc.charge(x.Pos())
		dst := cc.expr(x.Left)
		var j int
		switch x.Op {
		case "&&":
			j = cc.emit(OpJumpUnless, dst, -1, 0, 0)
		case "||":
			j = cc.emit(OpJumpIf, dst, -1, 0, 0)
		default: // "??"
			j = cc.emit(OpJumpNotNull, dst, -1, 0, 0)
		}
		r := cc.expr(x.Right)
		cc.emit(OpMove, dst, r, 0, 0)
		cc.ntmp = dst + 1
		cc.patchJump(j, cc.bind())
		return dst
	case *ast.UnaryExpr:
		var op Op
		switch x.Op {
		case "!":
			op = OpNot
		case "-":
			op = OpNeg
		case "+":
			op = OpToNum
		case "~":
			op = OpBitNot
		case "void":
			op = OpUndefV
		default:
			// typeof (ident special-casing) and delete: tree-walk.
			return cc.delegate(e)
		}
		cc.charge(x.Pos())
		dst := cc.push()
		r := cc.expr(x.X)
		if op == OpUndefV {
			cc.emit(OpUndefV, dst, 0, 0, 0)
		} else {
			cc.emit(op, dst, r, 0, 0)
		}
		cc.ntmp = dst + 1
		return dst
	case *ast.UpdateExpr:
		if _, ok := x.X.(*ast.Ident); ok {
			cc.charge(x.Pos())
			dst := cc.push()
			cc.emit(OpIncDec, dst, cc.konst(x), 0, 0)
			return dst
		}
		return cc.delegate(e)
	case *ast.AssignExpr:
		if x.Op != "=" {
			return cc.delegate(e)
		}
		switch t := x.Target.(type) {
		case *ast.Ident:
			cc.charge(x.Pos())
			v := cc.expr(x.Value)
			cc.emit(OpStoreIdent, v, cc.konst(t), 0, 0)
			return v
		case *ast.MemberExpr:
			cc.charge(x.Pos())
			v := cc.expr(x.Value)
			o := cc.expr(t.Object)
			if t.Computed {
				i := cc.expr(t.Index)
				cc.emit(OpMemberSetC, v, o, i, cc.konst(t))
			} else {
				cc.emit(OpMemberSet, v, o, cc.konst(t), 0)
			}
			cc.ntmp = v + 1
			return v
		default:
			return cc.delegate(e)
		}
	case *ast.CondExpr:
		cc.charge(x.Pos())
		dst := cc.expr(x.Cond)
		j := cc.emit(OpJumpUnless, dst, -1, 0, 0)
		r := cc.expr(x.Then)
		cc.emit(OpMove, dst, r, 0, 0)
		cc.ntmp = dst + 1
		j2 := cc.emit(OpJump, -1, 0, 0, 0)
		cc.patchJump(j, cc.bind())
		r2 := cc.expr(x.Else)
		cc.emit(OpMove, dst, r2, 0, 0)
		cc.ntmp = dst + 1
		cc.patchJump(j2, cc.bind())
		return dst
	case *ast.SeqExpr:
		cc.charge(x.Pos())
		dst := cc.push()
		for i, sub := range x.Exprs {
			r := cc.expr(sub)
			if i == len(x.Exprs)-1 {
				cc.emit(OpMove, dst, r, 0, 0)
			}
			cc.ntmp = dst + 1
		}
		if len(x.Exprs) == 0 {
			cc.emit(OpUndefV, dst, 0, 0, 0)
		}
		return dst
	case *ast.AwaitExpr:
		cc.charge(x.Pos())
		dst := cc.push()
		r := cc.expr(x.X)
		cc.emit(OpAwait, dst, r, 0, 0)
		cc.ntmp = dst + 1
		return dst
	default:
		// NewExpr, SpreadExpr (malformed position) and anything future.
		return cc.delegate(e)
	}
}

// call compiles a call expression. Argument registers are consecutive;
// the packed C operand is base<<16|argc. Tracker calls (TrackerOp) fuse
// into OpTrackerCall.
func (cc *chunkCompiler) call(x *ast.CallExpr) int32 {
	if hasSpread(x.Args) || cc.ntmp > 0x3fff || len(x.Args) > 0xffff {
		return cc.delegate(x)
	}
	mem, isMem := x.Callee.(*ast.MemberExpr)
	tau := TrackerOp(x)
	cc.charge(x.Pos())
	dst := cc.push()
	base := cc.ntmp
	for _, a := range x.Args {
		cc.expr(a)
	}
	packed := base<<16 | int32(len(x.Args))
	switch {
	case tau != 0:
		// both engines charge the step that evaluating the `__t` ident
		// would, then dispatch by op code
		cc.charge(mem.Object.Pos())
		site := &CallSite{Node: x, Mem: mem, Name: mem.Property, Tau: tau}
		cc.emit(OpTrackerCall, dst, 0, packed, cc.konst(site))
	case isMem && !mem.Computed:
		recv := cc.expr(mem.Object)
		site := &CallSite{Node: x, Mem: mem, Name: mem.Property}
		cc.emit(OpCallMethod, dst, recv, packed, cc.konst(site))
	case isMem:
		recv := cc.expr(mem.Object)
		cc.expr(mem.Index) // lands in recv+1
		site := &CallSite{Node: x, Mem: mem}
		cc.emit(OpCallMethodC, dst, recv, packed, cc.konst(site))
	default:
		f := cc.expr(x.Callee)
		site := &CallSite{Node: x}
		cc.emit(OpCall, dst, f, packed, cc.konst(site))
	}
	cc.ntmp = dst + 1
	return dst
}

func (cc *chunkCompiler) delegate(e ast.Expr) int32 {
	dst := cc.push()
	cc.emit(OpEvalExpr, dst, cc.konst(e), 0, 0)
	return dst
}

func hasSpread(list []ast.Expr) bool {
	for _, e := range list {
		if _, ok := e.(*ast.SpreadExpr); ok {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Sweep: make sure every function literal anywhere in the tree has a
// compiled chunk, including literals inside delegated regions (switch
// bodies, class methods, spread arguments). The interpreter attaches
// chunks when those literals become closures at run time.

func (mb *moduleBuilder) sweepStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.VarDecl:
		for _, d := range x.Decls {
			if d.Init != nil {
				mb.sweepExpr(d.Init)
			}
		}
	case *ast.FuncDecl:
		mb.sweepExpr(x.Fn)
	case *ast.ExprStmt:
		mb.sweepExpr(x.X)
	case *ast.ReturnStmt:
		if x.Value != nil {
			mb.sweepExpr(x.Value)
		}
	case *ast.IfStmt:
		mb.sweepExpr(x.Cond)
		mb.sweepStmt(x.Then)
		if x.Else != nil {
			mb.sweepStmt(x.Else)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			mb.sweepStmt(x.Init)
		}
		if x.Cond != nil {
			mb.sweepExpr(x.Cond)
		}
		if x.Post != nil {
			mb.sweepExpr(x.Post)
		}
		mb.sweepStmt(x.Body)
	case *ast.ForInStmt:
		mb.sweepExpr(x.Object)
		mb.sweepStmt(x.Body)
	case *ast.WhileStmt:
		mb.sweepExpr(x.Cond)
		mb.sweepStmt(x.Body)
	case *ast.DoWhileStmt:
		mb.sweepStmt(x.Body)
		mb.sweepExpr(x.Cond)
	case *ast.BlockStmt:
		for _, s2 := range x.Body {
			mb.sweepStmt(s2)
		}
	case *ast.ThrowStmt:
		mb.sweepExpr(x.Value)
	case *ast.TryStmt:
		mb.sweepStmt(x.Body)
		if x.Catch != nil {
			mb.sweepStmt(x.Catch)
		}
		if x.Finally != nil {
			mb.sweepStmt(x.Finally)
		}
	case *ast.SwitchStmt:
		mb.sweepExpr(x.Disc)
		for _, c := range x.Cases {
			if c.Test != nil {
				mb.sweepExpr(c.Test)
			}
			for _, s2 := range c.Body {
				mb.sweepStmt(s2)
			}
		}
	case *ast.ClassDecl:
		if x.SuperClass != nil {
			mb.sweepExpr(x.SuperClass)
		}
		for _, m := range x.Methods {
			mb.sweepExpr(m.Fn)
		}
	}
}

func (mb *moduleBuilder) sweepExpr(e ast.Expr) {
	switch x := e.(type) {
	case *ast.TemplateLit:
		for _, sub := range x.Exprs {
			mb.sweepExpr(sub)
		}
	case *ast.ArrayLit:
		for _, el := range x.Elems {
			mb.sweepExpr(el)
		}
	case *ast.ObjectLit:
		for _, p := range x.Props {
			if p.KeyExpr != nil {
				mb.sweepExpr(p.KeyExpr)
			}
			if p.Value != nil {
				mb.sweepExpr(p.Value)
			}
		}
	case *ast.FuncLit:
		mb.chunkFor(x)
		if x.ExprRet != nil {
			mb.sweepExpr(x.ExprRet)
		} else if x.Body != nil {
			for _, s := range x.Body.Body {
				mb.sweepStmt(s)
			}
		}
	case *ast.CallExpr:
		mb.sweepExpr(x.Callee)
		for _, a := range x.Args {
			mb.sweepExpr(a)
		}
	case *ast.NewExpr:
		mb.sweepExpr(x.Callee)
		for _, a := range x.Args {
			mb.sweepExpr(a)
		}
	case *ast.MemberExpr:
		mb.sweepExpr(x.Object)
		if x.Index != nil {
			mb.sweepExpr(x.Index)
		}
	case *ast.BinaryExpr:
		mb.sweepExpr(x.Left)
		mb.sweepExpr(x.Right)
	case *ast.LogicalExpr:
		mb.sweepExpr(x.Left)
		mb.sweepExpr(x.Right)
	case *ast.UnaryExpr:
		mb.sweepExpr(x.X)
	case *ast.UpdateExpr:
		mb.sweepExpr(x.X)
	case *ast.AssignExpr:
		mb.sweepExpr(x.Target)
		mb.sweepExpr(x.Value)
	case *ast.CondExpr:
		mb.sweepExpr(x.Cond)
		mb.sweepExpr(x.Then)
		mb.sweepExpr(x.Else)
	case *ast.SeqExpr:
		for _, sub := range x.Exprs {
			mb.sweepExpr(sub)
		}
	case *ast.SpreadExpr:
		mb.sweepExpr(x.X)
	case *ast.AwaitExpr:
		mb.sweepExpr(x.X)
	}
}
