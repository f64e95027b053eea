package interp

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"turnstile/internal/ast"
	"turnstile/internal/dift"
	"turnstile/internal/vm"
)

// This file is the bytecode executor: a flat dispatch loop over
// vm.Chunk instructions. Every opcode is a transcription of the
// corresponding tree-walker case and either calls the same helpers
// (defineVar, icRead/icMethod, GetMember, SetMember, CallFunction,
// CallMethod, BinaryOp, eval, execStmt) or inlines their exact bodies
// (ident slot read/write), so the two engines share semantics and charge
// accounting by construction. The win is structural: no recursive eval
// dispatch, no per-node interface switch, variables via (depth, slot)
// environments, tracker calls fused into one opcode, and an unboxed float
// lane for arithmetic temporaries.

// RegisterCode makes a compiled module's function chunks available for
// closure creation and call dispatch on this interpreter.
func (ip *Interp) RegisterCode(prog *ast.Program, mod *vm.Module) {
	if mod == nil {
		return
	}
	if ip.progMods == nil {
		ip.progMods = make(map[*ast.Program]*vm.Module)
		ip.funcCode = make(map[*ast.FuncLit]*vm.Chunk)
	}
	ip.progMods[prog] = mod
	for fl, ch := range mod.Funcs {
		ip.funcCode[fl] = ch
	}
}

// moduleFor returns the compiled module for a program, compiling on
// demand. It returns nil — sending the caller down the tree-walking path
// — on the walker engine or when resolver fast paths are off (the VM
// requires resolved coordinates to be worthwhile; NoResolve is the
// resolver's map-walk oracle).
func (ip *Interp) moduleFor(prog *ast.Program) *vm.Module {
	if ip.Engine != EngineVM || ip.NoResolve {
		return nil
	}
	if m, ok := ip.progMods[prog]; ok {
		return m
	}
	m := vm.Compile(prog)
	ip.RegisterCode(prog, m)
	return m
}

// codeFor looks up the compiled chunk for a function literal (nil when
// the VM is off or the literal was never compiled).
func (ip *Interp) codeFor(decl *ast.FuncLit) *vm.Chunk {
	if ip.Engine != EngineVM || ip.funcCode == nil || decl == nil {
		return nil
	}
	return ip.funcCode[decl]
}

// withCode attaches the compiled chunk to a freshly created closure so
// calls dispatch straight into the VM without a map lookup.
func (ip *Interp) withCode(fn *Function) *Function {
	if ip.Engine == EngineVM && fn.Code == nil && fn.Decl != nil && ip.funcCode != nil {
		fn.Code = ip.funcCode[fn.Decl]
	}
	return fn
}

func popEnvs(env *Env, n int32) *Env {
	for ; n > 0; n-- {
		env = env.parent
	}
	return env
}

// vmFrame is one chunk invocation's register file. regs is the boxed
// lane; fregs/ftag form the unboxed float lane: when ftag[i] is set, the
// live value of register i is fregs[i] and regs[i] is stale. Arithmetic
// opcodes keep intermediate numbers in the float lane; any opcode that
// needs a Value materializes through rval, which is where the one
// unavoidable interface boxing per externally-visible number happens —
// the same count the tree-walker pays at its store sites.
type vmFrame struct {
	regs  []Value
	fregs []float64
	ftag  []bool
}

// getFrame pops a pooled register file (or grows one) sized for n
// registers, cleared exactly like a fresh make.
func (ip *Interp) getFrame(n int) *vmFrame {
	var f *vmFrame
	if k := len(ip.framePool); k > 0 {
		f = ip.framePool[k-1]
		ip.framePool = ip.framePool[:k-1]
	} else {
		f = &vmFrame{}
	}
	if n > cap(f.regs) {
		f.regs = make([]Value, n)
		f.fregs = make([]float64, n)
		f.ftag = make([]bool, n)
		return f
	}
	f.regs = f.regs[:n]
	f.fregs = f.fregs[:n]
	f.ftag = f.ftag[:n]
	for i := range f.regs {
		f.regs[i] = nil
	}
	for i := range f.ftag {
		f.ftag[i] = false
	}
	return f
}

func (ip *Interp) putFrame(f *vmFrame) {
	if len(ip.framePool) < 64 {
		ip.framePool = append(ip.framePool, f)
	}
}

// getCallEnv pops a pooled call environment re-initialized for scope
// (non-nil, slot-resolved), behaving exactly like NewScopeEnv: all slots
// unbound, no maps, no const tracking. Only invoked for chunks whose
// compiled body cannot capture the environment (vm.Chunk.NoCapture), so
// recycling after the call is sound.
func (ip *Interp) getCallEnv(parent *Env, scope *ast.ScopeInfo) *Env {
	k := len(ip.envPool)
	if k == 0 {
		return NewScopeEnv(parent, scope)
	}
	e := ip.envPool[k-1]
	ip.envPool = ip.envPool[:k-1]
	n := scope.NumSlots()
	if n > cap(e.slots) {
		e.slots = make([]Value, n)
	} else {
		e.slots = e.slots[:n]
	}
	for i := range e.slots {
		e.slots[i] = unboundSlot{}
	}
	e.parent, e.scope = parent, scope
	e.slotConsts, e.vars, e.consts = nil, nil, nil
	return e
}

// putCallEnv clears slot references and returns the environment to the
// pool.
func (ip *Interp) putCallEnv(e *Env) {
	for i := range e.slots {
		e.slots[i] = nil
	}
	e.parent, e.scope = nil, nil
	e.slotConsts, e.vars, e.consts = nil, nil, nil
	if len(ip.envPool) < 64 {
		ip.envPool = append(ip.envPool, e)
	}
}

// vmArgs materializes the packed argument window like callArgs, but may
// reuse a pooled slice when the caller guarantees the callee cannot
// retain it (a compiled MiniJS body that never materializes `arguments`,
// rest parameters always copying; or a built-in τ function). Pool slices
// carry spare capacity so the common 0–8 arity range recycles cleanly.
func (ip *Interp) vmArgs(regs []Value, fregs []float64, ftag []bool, packed int32, pooled bool) []Value {
	argc := int(packed & 0xffff)
	if argc == 0 {
		return nil
	}
	base := int(packed >> 16)
	var args []Value
	if pooled {
		if k := len(ip.argPool); k > 0 && cap(ip.argPool[k-1]) >= argc {
			args = ip.argPool[k-1][:argc]
			ip.argPool = ip.argPool[:k-1]
		}
	}
	if args == nil {
		c := argc
		if pooled && c < 8 {
			c = 8
		}
		args = make([]Value, argc, c)
	}
	for i := 0; i < argc; i++ {
		if ftag[base+i] {
			args[i] = fregs[base+i]
		} else {
			args[i] = regs[base+i]
		}
	}
	return args
}

// putArgs clears and returns an argument slice obtained from vmArgs with
// pooled=true.
func (ip *Interp) putArgs(args []Value) {
	if args == nil {
		return
	}
	for i := range args {
		args[i] = nil
	}
	if len(ip.argPool) < 64 {
		ip.argPool = append(ip.argPool, args)
	}
}

// smallFloats interns the boxed form of small non-negative integral
// numbers. The float lane gives the VM a single materialization point per
// externally-visible number, which makes interning effective: loop
// counters and small arithmetic results stop allocating. Negative zero is
// excluded (smallFloats[0] is +0, and -0 must keep its sign bit for
// division).
var smallFloats [1024]Value

func init() {
	for i := range smallFloats {
		smallFloats[i] = float64(i)
	}
}

// boxFloat converts a float-lane number to a Value, reusing an interned
// box for small non-negative integers.
func boxFloat(f float64) Value {
	i := int64(f)
	if i >= 0 && i < int64(len(smallFloats)) && float64(i) == f && !math.Signbit(f) {
		return smallFloats[i]
	}
	return f
}

// rval materializes register i as a Value (boxing a float-lane number).
func rval(regs []Value, fregs []float64, ftag []bool, i int32) Value {
	if ftag[i] {
		return boxFloat(fregs[i])
	}
	return regs[i]
}

// trackerUndefined is the error of a tracker call with no tracker
// installed: the one the walker's lookup of the `__t` ident would raise.
func trackerUndefined(mem *ast.MemberExpr) error {
	return &RuntimeError{Msg: fmt.Sprintf("%q is not defined", vm.TrackerName), Pos: mem.Object.Pos()}
}

// runChunk executes one compiled chunk in env. Completions mirror
// execStmts: (ctrlNormal, undef, nil) off the end, ctrlReturn/Break/
// Continue from the corresponding opcodes, errors (including *Throw and
// budget trips) propagated unwound.
func (ip *Interp) runChunk(ch *vm.Chunk, env *Env) (ctrlKind, Value, error) {
	fr := ip.getFrame(ch.NumRegs)
	c, v, err := ip.runFrame(ch, env, fr)
	ip.putFrame(fr)
	return c, v, err
}

func (ip *Interp) runFrame(ch *vm.Chunk, env *Env, fr *vmFrame) (ctrlKind, Value, error) {
	regs, fregs, ftag := fr.regs, fr.fregs, fr.ftag
	code := ch.Code
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		if in.CN > 0 {
			// pre-charges: the step charges the tree-walker would have made
			// at the entries of the nodes this instruction fuses, in order.
			// Far from the budget ceiling and unguarded, the whole batch is
			// one add; otherwise fall back to per-position step so the trip
			// surfaces at the exact node the tree-walker would report.
			if ip.Guard == nil && ip.steps-ip.stepBase+int64(in.CN) <= ip.MaxSteps {
				ip.steps += int64(in.CN)
			} else {
				for _, p := range ch.Charges[in.CIdx : in.CIdx+in.CN] {
					if err := ip.step(p); err != nil {
						return ctrlNormal, nil, err
					}
				}
			}
		}
		switch in.Op {
		case vm.OpNop:
		case vm.OpConst:
			// number literals land in the pointer-free float lane: no
			// interface write, no write barrier
			if f, isF := ch.Consts[in.B].(float64); isF {
				fregs[in.A], ftag[in.A] = f, true
			} else {
				regs[in.A], ftag[in.A] = ch.Consts[in.B], false
			}
		case vm.OpUndefV:
			regs[in.A], ftag[in.A] = undef, false
		case vm.OpNullV:
			regs[in.A], ftag[in.A] = null, false
		case vm.OpMove:
			regs[in.A], fregs[in.A], ftag[in.A] = regs[in.B], fregs[in.B], ftag[in.B]
		case vm.OpIdent:
			// inlined lookupIdent: slot fast path, dynamic walk fallback
			id := ch.Consts[in.B].(*ast.Ident)
			if ref := id.Ref; ref != nil {
				cur := env
				for d := 0; d < ref.Depth && cur != nil; d++ {
					cur = cur.parent
				}
				if cur != nil && ref.Slot >= 0 && ref.Slot < len(cur.slots) {
					v := cur.slots[ref.Slot]
					if _, ub := v.(unboundSlot); !ub {
						ip.envSlotReads++
						// floats go to the pointer-free lane: downstream
						// arithmetic skips the assert and the register
						// write needs no barrier
						if f, isF := v.(float64); isF {
							fregs[in.A], ftag[in.A] = f, true
						} else {
							regs[in.A], ftag[in.A] = v, false
						}
						continue
					}
				}
			}
			ip.envDynReads++
			// dynamic-global cache: unresolved identifiers are mostly
			// top-level functions and vars living in the Globals map (the
			// program scope is deliberately dynamic); see identIC
			if nid := id.NodeID(); nid >= 0 && nid < len(ip.identICs) {
				e := &ip.identICs[nid]
				if e.node == id && e.epoch == ip.icEpoch && e.dyn == ip.envMapDefines {
					if v, ok := ip.Globals.vars[id.Name]; ok {
						regs[in.A], ftag[in.A] = v, false
						continue
					}
				}
				v, owner, ok := env.lookupOwner(id.Name)
				if !ok {
					return ctrlNormal, nil, &RuntimeError{Msg: fmt.Sprintf("%q is not defined", id.Name), Pos: id.Pos()}
				}
				if owner == ip.Globals {
					*e = identIC{node: id, epoch: ip.icEpoch, dyn: ip.envMapDefines}
				}
				regs[in.A], ftag[in.A] = v, false
				continue
			}
			v, ok := env.Lookup(id.Name)
			if !ok {
				return ctrlNormal, nil, &RuntimeError{Msg: fmt.Sprintf("%q is not defined", id.Name), Pos: id.Pos()}
			}
			regs[in.A], ftag[in.A] = v, false
		case vm.OpThis:
			t := ch.Consts[in.B].(*ast.ThisExpr)
			if v, ok := ip.lookupIdent(env, "this", t.Ref); ok {
				regs[in.A] = v
			} else {
				regs[in.A] = undef
			}
			ftag[in.A] = false
		case vm.OpDefine:
			site := ch.Consts[in.B].(*vm.DefineSite)
			ip.defineVar(env, site.Name, site.Ref, rval(regs, fregs, ftag, in.A), site.Const)
		case vm.OpStoreIdent:
			// inlined assignIdent: slot fast path, dynamic walk fallback,
			// implicit-global definition
			id := ch.Consts[in.B].(*ast.Ident)
			v := rval(regs, fregs, ftag, in.A)
			if ref := id.Ref; ref != nil {
				cur := env
				for d := 0; d < ref.Depth && cur != nil; d++ {
					cur = cur.parent
				}
				if cur != nil && ref.Slot >= 0 && ref.Slot < len(cur.slots) {
					if _, ub := cur.slots[ref.Slot].(unboundSlot); !ub {
						if cur.slotConsts != nil && cur.slotConsts[ref.Slot] {
							return ctrlNormal, nil, &RuntimeError{
								Msg: fmt.Sprintf("assignment to constant variable %q", cur.scope.Names[ref.Slot]),
								Pos: id.Pos(),
							}
						}
						cur.slots[ref.Slot] = v
						ip.envSlotWrites++
						continue
					}
				}
			}
			ip.envDynWrites++
			if err := env.Assign(id.Name, v); err != nil {
				if errors.Is(err, ErrNotDefined) {
					env.Global().Define(id.Name, v, false)
				} else {
					return ctrlNormal, nil, &RuntimeError{Msg: err.Error(), Pos: id.Pos()}
				}
			}
		case vm.OpIncDec:
			x := ch.Consts[in.B].(*ast.UpdateExpr)
			id := x.X.(*ast.Ident)
			var old Value = undef
			if v, ok := ip.lookupIdent(env, id.Name, id.Ref); ok {
				old = v
			}
			n := ToNumber(old)
			next := n + 1
			if x.Op == "--" {
				next = n - 1
			}
			if err := ip.assignIdent(env, id.Name, id.Ref, next); err != nil {
				return ctrlNormal, nil, &RuntimeError{Msg: err.Error(), Pos: id.Pos()}
			}
			if x.Prefix {
				fregs[in.A], ftag[in.A] = next, true
			} else {
				fregs[in.A], ftag[in.A] = n, true
			}
		case vm.OpJump:
			pc = int(in.A) - 1
		case vm.OpJumpUnless:
			var t bool
			if ftag[in.A] {
				f := fregs[in.A]
				t = f == f && f != 0
			} else if b, ok := regs[in.A].(bool); ok {
				t = b
			} else {
				t = Truthy(regs[in.A])
			}
			if !t {
				pc = int(in.B) - 1
			}
		case vm.OpJumpIf:
			var t bool
			if ftag[in.A] {
				f := fregs[in.A]
				t = f == f && f != 0
			} else if b, ok := regs[in.A].(bool); ok {
				t = b
			} else {
				t = Truthy(regs[in.A])
			}
			if t {
				pc = int(in.B) - 1
			}
		case vm.OpJumpNotNull:
			if ftag[in.A] || !IsNullish(dift.Unwrap(regs[in.A])) {
				pc = int(in.B) - 1
			}
		case vm.OpAdd:
			var lf, rf float64
			var lok, rok bool
			if ftag[in.B] {
				lf, lok = fregs[in.B], true
			} else {
				lf, lok = regs[in.B].(float64)
			}
			if ftag[in.C] {
				rf, rok = fregs[in.C], true
			} else {
				rf, rok = regs[in.C].(float64)
			}
			if lok && rok {
				fregs[in.A], ftag[in.A] = lf+rf, true
				continue
			}
			node := ch.Consts[in.D].(*ast.BinaryExpr)
			v, err := ip.BinaryOp(node.Op, rval(regs, fregs, ftag, in.B), rval(regs, fregs, ftag, in.C), node.Pos())
			if err != nil {
				return ctrlNormal, nil, err
			}
			regs[in.A], ftag[in.A] = v, false
		case vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMod:
			var lf, rf float64
			var lok, rok bool
			if ftag[in.B] {
				lf, lok = fregs[in.B], true
			} else {
				lf, lok = regs[in.B].(float64)
			}
			if ftag[in.C] {
				rf, rok = fregs[in.C], true
			} else {
				rf, rok = regs[in.C].(float64)
			}
			// a register that misses both lanes coerces exactly like the
			// BinaryOp arithmetic cases: ToNumber of the unwrapped value
			if !lok {
				lf = ToNumber(dift.Unwrap(regs[in.B]))
			}
			if !rok {
				rf = ToNumber(dift.Unwrap(regs[in.C]))
			}
			switch in.Op {
			case vm.OpSub:
				fregs[in.A] = lf - rf
			case vm.OpMul:
				fregs[in.A] = lf * rf
			case vm.OpDiv:
				fregs[in.A] = lf / rf
			default:
				// integral operands with a non-negative dividend take the
				// integer remainder, which agrees with math.Mod (truncated
				// division, sign of the dividend) at a fraction of the
				// cost; negative dividends keep math.Mod, whose zero
				// remainder is -0 (-4 % 2), and so do dividends from 2^63
				// up, which int64 cannot hold
				li, ri := int64(lf), int64(rf)
				if ri != 0 && float64(li) == lf && float64(ri) == rf && !math.Signbit(lf) && lf < 1<<63 {
					fregs[in.A] = float64(li % ri)
				} else {
					fregs[in.A] = math.Mod(lf, rf)
				}
			}
			ftag[in.A] = true
		case vm.OpCmpLt, vm.OpCmpGt, vm.OpCmpLe, vm.OpCmpGe:
			var lf, rf float64
			var lok, rok bool
			if ftag[in.B] {
				lf, lok = fregs[in.B], true
			} else {
				lf, lok = regs[in.B].(float64)
			}
			if ftag[in.C] {
				rf, rok = fregs[in.C], true
			} else {
				rf, rok = regs[in.C].(float64)
			}
			if lok && rok {
				switch in.Op {
				case vm.OpCmpLt:
					regs[in.A] = lf < rf
				case vm.OpCmpGt:
					regs[in.A] = lf > rf
				case vm.OpCmpLe:
					regs[in.A] = lf <= rf
				default:
					regs[in.A] = lf >= rf
				}
				ftag[in.A] = false
				continue
			}
			node := ch.Consts[in.D].(*ast.BinaryExpr)
			v, err := ip.BinaryOp(node.Op, rval(regs, fregs, ftag, in.B), rval(regs, fregs, ftag, in.C), node.Pos())
			if err != nil {
				return ctrlNormal, nil, err
			}
			regs[in.A], ftag[in.A] = v, false
		case vm.OpStrictEq, vm.OpStrictNeq:
			var eq bool
			if ftag[in.B] && ftag[in.C] {
				eq = fregs[in.B] == fregs[in.C]
			} else if ftag[in.B] {
				f, ok := dift.Unwrap(regs[in.C]).(float64)
				eq = ok && fregs[in.B] == f
			} else if ftag[in.C] {
				f, ok := dift.Unwrap(regs[in.B]).(float64)
				eq = ok && fregs[in.C] == f
			} else {
				eq = StrictEquals(regs[in.B], regs[in.C])
			}
			if in.Op == vm.OpStrictNeq {
				eq = !eq
			}
			regs[in.A], ftag[in.A] = eq, false
		case vm.OpBinOp:
			node := ch.Consts[in.D].(*ast.BinaryExpr)
			v, err := ip.BinaryOp(node.Op, rval(regs, fregs, ftag, in.B), rval(regs, fregs, ftag, in.C), node.Pos())
			if err != nil {
				return ctrlNormal, nil, err
			}
			regs[in.A], ftag[in.A] = v, false
		case vm.OpNot:
			if ftag[in.B] {
				f := fregs[in.B]
				regs[in.A] = !(f == f && f != 0)
			} else {
				regs[in.A] = !Truthy(regs[in.B])
			}
			ftag[in.A] = false
		case vm.OpNeg:
			var f float64
			if ftag[in.B] {
				f = fregs[in.B]
			} else {
				f = ToNumber(regs[in.B])
			}
			fregs[in.A], ftag[in.A] = -f, true
		case vm.OpToNum:
			if ftag[in.B] {
				fregs[in.A] = fregs[in.B]
			} else {
				fregs[in.A] = ToNumber(regs[in.B])
			}
			ftag[in.A] = true
		case vm.OpBitNot:
			var f float64
			if ftag[in.B] {
				f = fregs[in.B]
			} else {
				f = ToNumber(regs[in.B])
			}
			fregs[in.A], ftag[in.A] = float64(^int64(f)), true
		case vm.OpAwait:
			regs[in.A], ftag[in.A] = ip.ResolvePromise(rval(regs, fregs, ftag, in.B)), false
		case vm.OpTemplate:
			x := ch.Consts[in.D].(*ast.TemplateLit)
			var b strings.Builder
			base := int(in.B)
			for i, q := range x.Quasis {
				b.WriteString(q)
				if i < len(x.Exprs) {
					b.WriteString(ToString(rval(regs, fregs, ftag, int32(base+i))))
				}
			}
			if err := ip.alloc(int64(b.Len()), x.Pos()); err != nil {
				return ctrlNormal, nil, err
			}
			regs[in.A], ftag[in.A] = b.String(), false
		case vm.OpArray:
			x := ch.Consts[in.D].(*ast.ArrayLit)
			n := int(in.C)
			var elems []Value
			if n > 0 {
				elems = make([]Value, n)
				for i := 0; i < n; i++ {
					elems[i] = rval(regs, fregs, ftag, in.B+int32(i))
				}
			}
			if err := ip.alloc(int64(n)+1, x.Pos()); err != nil {
				return ctrlNormal, nil, err
			}
			regs[in.A], ftag[in.A] = NewArray(elems...), false
		case vm.OpNewObject:
			x := ch.Consts[in.B].(*ast.ObjectLit)
			if err := ip.alloc(int64(len(x.Props))+1, x.Pos()); err != nil {
				return ctrlNormal, nil, err
			}
			regs[in.A], ftag[in.A] = NewObject(), false
		case vm.OpSetProp:
			regs[in.A].(*Object).Set(ch.Consts[in.C].(string), rval(regs, fregs, ftag, in.B))
		case vm.OpClosure:
			p := ch.Consts[in.B].(*vm.FuncProto)
			fn := NewFunction(p.Name, p.Decl, env)
			fn.Code = p.Chunk
			regs[in.A], ftag[in.A] = fn, false
		case vm.OpHoist:
			p := ch.Consts[in.B].(*vm.FuncProto)
			fn := NewFunction(p.Name, p.Decl, env)
			fn.Code = p.Chunk
			ip.defineVar(env, p.Name, p.Ref, fn, false)
		case vm.OpMemberGet:
			x := ch.Consts[in.C].(*ast.MemberExpr)
			obj := rval(regs, fregs, ftag, in.B)
			if o, isObj := dift.Unwrap(obj).(*Object); isObj {
				if v, hit := ip.icRead(x, o, x.Property); hit {
					regs[in.A], ftag[in.A] = v, false
					continue
				}
			}
			v, err := ip.GetMember(obj, x.Property, x.Pos())
			if err != nil {
				return ctrlNormal, nil, err
			}
			regs[in.A], ftag[in.A] = v, false
		case vm.OpMemberGetC:
			x := ch.Consts[in.D].(*ast.MemberExpr)
			v, err := ip.GetMember(rval(regs, fregs, ftag, in.B), ToString(rval(regs, fregs, ftag, in.C)), x.Pos())
			if err != nil {
				return ctrlNormal, nil, err
			}
			regs[in.A], ftag[in.A] = v, false
		case vm.OpMemberSet:
			x := ch.Consts[in.C].(*ast.MemberExpr)
			if err := ip.SetMember(rval(regs, fregs, ftag, in.B), x.Property, rval(regs, fregs, ftag, in.A), x.Pos()); err != nil {
				return ctrlNormal, nil, err
			}
		case vm.OpMemberSetC:
			x := ch.Consts[in.D].(*ast.MemberExpr)
			if err := ip.SetMember(rval(regs, fregs, ftag, in.B), ToString(rval(regs, fregs, ftag, in.C)), rval(regs, fregs, ftag, in.A), x.Pos()); err != nil {
				return ctrlNormal, nil, err
			}
		case vm.OpCall:
			site := ch.Consts[in.D].(*vm.CallSite)
			fnv := rval(regs, fregs, ftag, in.B)
			var v Value
			var err error
			// direct fast path for plain MiniJS functions: skip the
			// CallFunction dispatch and pool the argument slice when the
			// callee's compiled body provably cannot retain it
			if f, ok := dift.Unwrap(fnv).(*Function); ok && !f.IsClass {
				this := Value(undef)
				if f.This != nil {
					this = f.This
				}
				pooledArgs := f.Code != nil && ip.Engine == EngineVM && !f.Code.NeedsArguments
				args := ip.vmArgs(regs, fregs, ftag, in.C, pooledArgs)
				v, err = ip.invokeFunc(f.Decl, f.Code, f.Env, this, args, site.Node.Pos())
				if pooledArgs {
					ip.putArgs(args)
				}
			} else {
				v, err = ip.CallFunction(fnv, undef, callArgs(regs, fregs, ftag, in.C), site.Node.Pos())
			}
			if err != nil {
				return ctrlNormal, nil, err
			}
			regs[in.A], ftag[in.A] = v, false
		case vm.OpCallMethod:
			site := ch.Consts[in.D].(*vm.CallSite)
			recv := rval(regs, fregs, ftag, in.B)
			var v Value
			var err error
			dispatched := false
			if o, isObj := dift.Unwrap(recv).(*Object); isObj {
				if fnv, hit := ip.icMethod(site.Mem, o, site.Name); hit {
					if f, ok := dift.Unwrap(fnv).(*Function); ok && !f.IsClass {
						this := Value(o)
						if f.This != nil {
							this = f.This
						}
						pooledArgs := f.Code != nil && ip.Engine == EngineVM && !f.Code.NeedsArguments
						args := ip.vmArgs(regs, fregs, ftag, in.C, pooledArgs)
						v, err = ip.invokeFunc(f.Decl, f.Code, f.Env, this, args, site.Node.Pos())
						if pooledArgs {
							ip.putArgs(args)
						}
					} else {
						v, err = ip.CallFunction(fnv, o, callArgs(regs, fregs, ftag, in.C), site.Node.Pos())
					}
					dispatched = true
				}
			}
			if !dispatched {
				v, err = ip.CallMethod(recv, site.Name, callArgs(regs, fregs, ftag, in.C), site.Node.Pos())
			}
			if err != nil {
				return ctrlNormal, nil, err
			}
			regs[in.A], ftag[in.A] = v, false
		case vm.OpCallMethodC:
			site := ch.Consts[in.D].(*vm.CallSite)
			args := callArgs(regs, fregs, ftag, in.C)
			name := ToString(rval(regs, fregs, ftag, in.B+1))
			v, err := ip.CallMethod(rval(regs, fregs, ftag, in.B), name, args, site.Node.Pos())
			if err != nil {
				return ctrlNormal, nil, err
			}
			regs[in.A], ftag[in.A] = v, false
		case vm.OpTrackerCall:
			site := ch.Consts[in.D].(*vm.CallSite)
			fn := ip.tauFns[site.Tau]
			if fn == nil {
				return ctrlNormal, nil, trackerUndefined(site.Mem)
			}
			// a τ function never keeps its argument slice (see
			// InstallTracker), so the window is pooled
			args := ip.vmArgs(regs, fregs, ftag, in.C, true)
			v, err := fn.Fn(ip, undef, args)
			ip.putArgs(args)
			if err != nil {
				return ctrlNormal, nil, err
			}
			regs[in.A], ftag[in.A] = v, false
		case vm.OpEvalExpr:
			v, err := ip.eval(ch.Consts[in.B].(ast.Expr), env)
			if err != nil {
				return ctrlNormal, nil, err
			}
			regs[in.A], ftag[in.A] = v, false
		case vm.OpExecStmt:
			c, v, err := ip.execStmt(ch.Consts[in.A].(ast.Stmt), env)
			if err != nil {
				return ctrlNormal, nil, err
			}
			switch c {
			case ctrlNormal:
			case ctrlReturn:
				return ctrlReturn, v, nil
			case ctrlBreak:
				if in.B < 0 {
					return ctrlBreak, v, nil
				}
				e := ch.Edges[in.B]
				env = popEnvs(env, e.PopN)
				pc = int(e.PC) - 1
			case ctrlContinue:
				if in.C < 0 {
					return ctrlContinue, v, nil
				}
				e := ch.Edges[in.C]
				env = popEnvs(env, e.PopN)
				pc = int(e.PC) - 1
			}
		case vm.OpTry:
			ti := ch.Consts[in.A].(*vm.TryInfo)
			x := ti.Node
			c, v, err := ip.runChunk(ti.Body, newEnvFor(env, x.Body.Scope))
			if err != nil {
				if th, ok := err.(*Throw); ok && x.Catch != nil {
					catchEnv := newEnvFor(env, x.Catch.Scope)
					if x.CatchVar != "" {
						ip.defineVar(catchEnv, x.CatchVar, x.CatchRef, th.Val, false)
					}
					c, v, err = ip.runChunk(ti.Catch, catchEnv)
				}
			}
			if x.Finally != nil {
				fc, fv, ferr := ip.runChunk(ti.Finally, newEnvFor(env, x.Finally.Scope))
				if ferr != nil {
					return ctrlNormal, nil, ferr
				}
				if fc != ctrlNormal {
					c, v, err = fc, fv, nil
				}
			}
			if err != nil {
				return ctrlNormal, nil, err
			}
			switch c {
			case ctrlNormal:
			case ctrlReturn:
				return ctrlReturn, v, nil
			case ctrlBreak:
				if in.B < 0 {
					return ctrlBreak, v, nil
				}
				e := ch.Edges[in.B]
				env = popEnvs(env, e.PopN)
				pc = int(e.PC) - 1
			case ctrlContinue:
				if in.C < 0 {
					return ctrlContinue, v, nil
				}
				e := ch.Edges[in.C]
				env = popEnvs(env, e.PopN)
				pc = int(e.PC) - 1
			}
		case vm.OpPushScope:
			env = newEnvFor(env, ch.Scopes[in.B])
		case vm.OpPopScope:
			env = env.parent
		case vm.OpPopN:
			env = popEnvs(env, in.A)
		case vm.OpIterCopy:
			env = env.IterCopy()
		case vm.OpRet:
			return ctrlReturn, rval(regs, fregs, ftag, in.A), nil
		case vm.OpRetUndef:
			return ctrlReturn, undef, nil
		case vm.OpCtrl:
			if in.A == 1 {
				return ctrlBreak, undef, nil
			}
			return ctrlContinue, undef, nil
		case vm.OpThrow:
			return ctrlNormal, nil, &Throw{Val: rval(regs, fregs, ftag, in.A)}
		default:
			return ctrlNormal, nil, &RuntimeError{Msg: fmt.Sprintf("unknown opcode %d", in.Op)}
		}
	}
	return ctrlNormal, undef, nil
}

// callArgs copies the packed argument window (base<<16|argc) out of the
// register file, materializing float-lane values. Arguments must be
// copied, not aliased: the callee's `arguments` array may outlive this
// frame's registers.
func callArgs(regs []Value, fregs []float64, ftag []bool, packed int32) []Value {
	argc := int(packed & 0xffff)
	if argc == 0 {
		return nil
	}
	base := int(packed >> 16)
	args := make([]Value, argc)
	for i := 0; i < argc; i++ {
		if ftag[base+i] {
			args[i] = fregs[base+i]
		} else {
			args[i] = regs[base+i]
		}
	}
	return args
}
