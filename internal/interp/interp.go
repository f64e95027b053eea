package interp

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"turnstile/internal/ast"
	"turnstile/internal/dift"
	"turnstile/internal/faults"
	"turnstile/internal/guard"
	"turnstile/internal/telemetry"
	"turnstile/internal/vm"
)

// Throw is a MiniJS exception in flight.
type Throw struct {
	Val Value
}

func (t *Throw) Error() string {
	if o, ok := t.Val.(*Object); ok {
		if msg, found := o.Get("message"); found {
			return o.Class + ": " + ToString(msg)
		}
	}
	return "Throw: " + ToString(t.Val)
}

// RuntimeError is an internal evaluation error (not a JS exception), e.g.
// calling a non-function or exceeding the step budget.
type RuntimeError struct {
	Msg string
	Pos ast.Pos
}

func (e *RuntimeError) Error() string {
	if e.Pos.Valid() {
		return fmt.Sprintf("runtime error at %s: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}

type ctrlKind int

const (
	ctrlNormal ctrlKind = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

// Interp executes MiniJS programs. One Interp is one application runtime
// instance (the analogue of one Node.js process).
type Interp struct {
	Globals *Env
	// IO records all writes to host sink modules, and provides the handles
	// used to inject source events.
	IO *IORecorder
	// Tracker, when non-nil, is the inlined DIF Tracker, which the
	// application reaches only through tracker calls (vm.TrackerOp).
	Tracker *dift.Tracker
	// ConsoleOut collects console.log lines.
	ConsoleOut []string
	// MaxSteps bounds the evaluation steps of one host entry (a Run, an
	// Emit, a host call into MiniJS) to catch runaway programs; see enter.
	MaxSteps int64
	// Clock is the virtual time source: injected delays, retry backoff and
	// setTimeout deferrals advance it instead of sleeping, so temporal
	// behaviour is a deterministic function of the executed operations.
	Clock *faults.Clock
	// Faults, when non-nil, consults a seeded fault schedule before every
	// host-module operation (chaos mode). Nil means every op succeeds.
	Faults *faults.Injector
	// Metrics, when non-nil, receives host-module call counters and sink
	// write counters; the tracker's per-op counters share the registry.
	Metrics *telemetry.Metrics
	// Tracer, when non-nil, records structured flow events (sink writes
	// here; label/check/invoke/violation events from the tracker) with
	// timestamps from the virtual Clock.
	Tracer *telemetry.Tracer
	// Guard, when non-nil, enforces resource budgets (fuel, call depth,
	// allocation, virtual-clock deadline) on top of MaxSteps, surfacing
	// trips as typed *guard.BudgetError. Install via SetGuard so the
	// fail-closed tracker integration is wired up.
	Guard *guard.Guard
	// MaxCallDepth hard-caps MiniJS call-stack depth even with no Guard
	// installed: a Go stack overflow is unrecoverable and would kill the
	// whole process, so this cooperative cap must trip first. 0 disables
	// (tests only).
	MaxCallDepth int
	// Engine selects the bytecode VM (default) or the tree-walker.
	Engine Engine
	// NoResolve turns the interpreter into the resolver's oracle: the
	// inline caches and the VM stay off, and label functions are left
	// unresolved, so an unresolved program runs as a pure map walk. Only
	// the resolver's equivalence tests and the microbenchmark's map-walk
	// column set it; no deployment path offers it.
	NoResolve bool

	steps       int64
	stepBase    int64 // steps when the outermost host entry began
	entries     int   // host entries in progress
	callDepth   int
	modules     map[string]Value
	localLoader func(name string) (Value, bool, error)
	now         float64 // deterministic Date.now() counter

	// ics holds the per-call-site monomorphic inline caches, indexed by
	// AST node ID (see ic.go). Sized lazily from Program.MaxID.
	ics      []icEntry
	identICs []identIC

	// icEpoch invalidates every inline cache on program swap: IC tables
	// only grow and are guarded by AST node identity, so without an epoch a
	// reused node ID from an aliasing allocation in a later program could
	// validate a stale cached Value (a cross-program label-leak channel).
	// Entries record the epoch they were filled in; Run bumps it whenever
	// the executed program changes.
	icEpoch  uint64
	lastProg *ast.Program

	// envMapDefines counts the defines into a non-global environment that
	// may have gone to its vars map (see defineMap). The VM's
	// dynamic-global identifier cache (exec_vm.go) snapshots it at fill
	// time: while it holds still, a name that resolved to the Globals map
	// cannot have acquired a nearer provider — slot layouts are static,
	// map bindings are never deleted, IterCopy only copies bindings that
	// already shadowed Globals at fill time, and a new Globals binding
	// cannot shadow one the cache resolved to Globals.
	envMapDefines uint64

	// bytecode VM state: compiled modules per program and the function
	// chunk registry used to attach Code to closures (see exec_vm.go)
	progMods map[*ast.Program]*vm.Module
	funcCode map[*ast.FuncLit]*vm.Chunk
	// framePool recycles register files across chunk invocations (LIFO,
	// so nested calls reuse the hottest frames); envPool and argPool do
	// the same for call environments and argument slices on calls whose
	// compiled body provably cannot capture them (Chunk.NoCapture,
	// Chunk.NeedsArguments)
	framePool []*vmFrame
	envPool   []*Env
	argPool   [][]Value

	// tauFns holds the installed tracker's τ methods by op code
	// (vm.TauMethods), all nil until InstallTracker. Every tracker call
	// (vm.TrackerOp), on either engine, dispatches through it.
	tauFns [len(vm.TauMethods)]*HostFunc

	// resolver fast-path telemetry, flushed into Metrics by
	// FlushEnvTelemetry
	envSlotReads, envDynReads   int64
	envSlotWrites, envDynWrites int64
	icHits, icMisses            int64
}

// New creates an interpreter with the standard global environment and host
// modules installed.
func New() *Interp {
	ip := &Interp{
		Globals:      NewEnv(nil),
		IO:           NewIORecorder(),
		MaxSteps:     200_000_000,
		MaxCallDepth: DefaultMaxCallDepth,
		Clock:        faults.NewClock(),
		modules:      make(map[string]Value),
	}
	ip.installGlobals()
	return ip
}

// EnableTelemetry attaches a metrics registry and/or structured tracer to
// the interpreter and, if a tracker is installed, to the tracker and its
// policy graph. Call with two nils to detach. A nil tracer with metrics
// enables counting only; NewTracer(cap, ip.Clock.Now) builds a tracer on
// this interpreter's virtual clock.
func (ip *Interp) EnableTelemetry(m *telemetry.Metrics, tr *telemetry.Tracer) {
	ip.Metrics = m
	ip.Tracer = tr
	if ip.Tracker != nil {
		ip.Tracker.EnableTelemetry(m, tr)
	}
}

// InstallFaults attaches a seeded fault injector running on this
// interpreter's virtual clock and returns it for inspection. Passing a
// nil schedule removes the injector.
func (ip *Interp) InstallFaults(s *faults.Schedule) *faults.Injector {
	if s == nil {
		ip.Faults = nil
		return nil
	}
	ip.Faults = faults.NewInjector(s, ip.Clock)
	return ip.Faults
}

// DefaultMaxCallDepth is the hard call-stack cap installed by New. It is
// far above what the corpus applications reach while keeping the Go stack
// well clear of its unrecoverable limit (each MiniJS frame costs a bounded
// number of Go frames).
const DefaultMaxCallDepth = 20_000

// step charges one unit against the step budget and, when a Guard is
// installed, against its fuel/deadline budgets.
func (ip *Interp) step(pos ast.Pos) error {
	ip.steps++
	if ip.steps-ip.stepBase > ip.MaxSteps {
		return &RuntimeError{Msg: "step budget exceeded (possible infinite loop)", Pos: pos}
	}
	if ip.Guard != nil {
		// the site string is only materialized on the first trip; the hot
		// path must not format a position per step
		if err := ip.Guard.Step(1, ""); err != nil {
			ip.siteOnTrip(pos)
			return err
		}
	}
	return nil
}

// alloc charges n allocation units against the guard at the runtime's
// amplification sites (literals, string growth, array growth). No-op when
// unguarded.
func (ip *Interp) alloc(n int64, pos ast.Pos) error {
	if ip.Guard == nil {
		return nil
	}
	if err := ip.Guard.Alloc(n, ""); err != nil {
		ip.siteOnTrip(pos)
		return err
	}
	return nil
}

// siteOnTrip back-fills the source position onto the sticky budget error
// the first time it surfaces (the trip site itself passed "" to avoid
// per-operation formatting).
func (ip *Interp) siteOnTrip(pos ast.Pos) {
	if be := ip.Guard.Tripped(); be != nil && be.Site == "" {
		be.Site = pos.String()
	}
}

// SetGuard installs (or with nil removes) the resource guard, binds its
// deadline to this interpreter's virtual clock, and arranges the
// fail-closed integration: when the tracker is in fail-closed mode, any
// budget trip poisons it, so no sink write is permitted afterwards.
func (ip *Interp) SetGuard(g *guard.Guard) {
	ip.Guard = g
	if g == nil {
		return
	}
	g.SetClock(ip.Clock.Now)
	g.OnTrip = func(be *guard.BudgetError) {
		if ip.Tracker != nil && ip.Tracker.FailClosed {
			ip.Tracker.Poison("guard trip: " + string(be.Kind))
		}
	}
}

// Steps returns the number of evaluation steps consumed so far.
func (ip *Interp) Steps() int64 { return ip.steps }

// enter opens a host entry into MiniJS. The outermost one re-arms the step
// budget, so a long-lived interpreter is bounded per message rather than
// per lifetime; nested entries (emitter.emit re-entering Emit, a require
// running a module) share it, so a handler that re-emits forever still
// trips. Every enter is paired with a deferred exit.
func (ip *Interp) enter() {
	if ip.entries == 0 {
		ip.stepBase = ip.steps
	}
	ip.entries++
}

func (ip *Interp) exit() { ip.entries-- }

// Run parses nothing — it executes an already-parsed program in the global
// scope.
func (ip *Interp) Run(prog *ast.Program) error {
	ip.enter()
	defer ip.exit()
	if !ip.NoResolve {
		ip.ensureICs(prog.MaxID)
	}
	if ip.lastProg != prog {
		// program swap: retire every inline-cache entry filled under the
		// previous program before any of its node IDs can alias
		ip.lastProg = prog
		ip.icEpoch++
	}
	var c ctrlKind
	var err error
	if mod := ip.moduleFor(prog); mod != nil {
		c, _, err = ip.runChunk(mod.Top, ip.Globals)
	} else {
		c, _, err = ip.execStmts(prog.Body, ip.Globals)
	}
	if err != nil {
		return err
	}
	if c == ctrlBreak || c == ctrlContinue {
		return &RuntimeError{Msg: "break/continue outside loop"}
	}
	return nil
}

func (ip *Interp) execStmts(stmts []ast.Stmt, env *Env) (ctrlKind, Value, error) {
	// hoist function declarations (JS semantics; corpus apps rely on it)
	for _, s := range stmts {
		if fd, ok := s.(*ast.FuncDecl); ok {
			ip.defineVar(env, fd.Name, fd.Ref, ip.withCode(NewFunction(fd.Name, fd.Fn, env)), false)
		}
	}
	for _, s := range stmts {
		c, v, err := ip.execStmt(s, env)
		if err != nil || c != ctrlNormal {
			return c, v, err
		}
	}
	return ctrlNormal, undef, nil
}

func (ip *Interp) execStmt(s ast.Stmt, env *Env) (ctrlKind, Value, error) {
	if err := ip.step(s.Pos()); err != nil {
		return ctrlNormal, nil, err
	}
	switch x := s.(type) {
	case *ast.VarDecl:
		for _, d := range x.Decls {
			var v Value = undef
			if d.Init != nil {
				var err error
				v, err = ip.eval(d.Init, env)
				if err != nil {
					return ctrlNormal, nil, err
				}
			}
			ip.defineVar(env, d.Name, d.Ref, v, x.Kind == ast.DeclConst)
		}
		return ctrlNormal, undef, nil
	case *ast.FuncDecl:
		// already hoisted
		return ctrlNormal, undef, nil
	case *ast.ExprStmt:
		_, err := ip.eval(x.X, env)
		return ctrlNormal, undef, err
	case *ast.ReturnStmt:
		var v Value = undef
		if x.Value != nil {
			var err error
			v, err = ip.eval(x.Value, env)
			if err != nil {
				return ctrlNormal, nil, err
			}
		}
		return ctrlReturn, v, nil
	case *ast.IfStmt:
		cond, err := ip.eval(x.Cond, env)
		if err != nil {
			return ctrlNormal, nil, err
		}
		// branch bodies run directly in the surrounding environment; a
		// block body creates its own scope in the BlockStmt case below
		if Truthy(cond) {
			return ip.execStmt(x.Then, env)
		}
		if x.Else != nil {
			return ip.execStmt(x.Else, env)
		}
		return ctrlNormal, undef, nil
	case *ast.BlockStmt:
		return ip.execStmts(x.Body, newEnvFor(env, x.Scope))
	case *ast.ForStmt:
		loopEnv := newEnvFor(env, x.Scope)
		if x.Init != nil {
			if c, v, err := ip.execStmt(x.Init, loopEnv); err != nil || c != ctrlNormal {
				return c, v, err
			}
		}
		// a let/const header gets a fresh binding per iteration, so
		// closures created in the body capture that iteration's value
		perIter := false
		if vd, isDecl := x.Init.(*ast.VarDecl); isDecl && vd.Kind != ast.DeclVar {
			perIter = true
		}
		for {
			if err := ip.step(x.Pos()); err != nil {
				return ctrlNormal, nil, err
			}
			if x.Cond != nil {
				cond, err := ip.eval(x.Cond, loopEnv)
				if err != nil {
					return ctrlNormal, nil, err
				}
				if !Truthy(cond) {
					break
				}
			}
			c, v, err := ip.execStmt(x.Body, loopEnv)
			if err != nil {
				return ctrlNormal, nil, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c, v, nil
			}
			if perIter {
				// copy-before-post: the update expression mutates the next
				// iteration's binding, leaving captured ones untouched
				loopEnv = loopEnv.IterCopy()
			}
			if x.Post != nil {
				if _, err := ip.eval(x.Post, loopEnv); err != nil {
					return ctrlNormal, nil, err
				}
			}
		}
		return ctrlNormal, undef, nil
	case *ast.ForInStmt:
		obj, err := ip.eval(x.Object, env)
		if err != nil {
			return ctrlNormal, nil, err
		}
		items, err := ip.iterationItems(obj, x.Kind, x.Pos())
		if err != nil {
			return ctrlNormal, nil, err
		}
		for _, item := range items {
			if err := ip.step(x.Pos()); err != nil {
				return ctrlNormal, nil, err
			}
			iterEnv := env
			if x.Decl {
				// fresh binding each iteration; const loop vars are const
				iterEnv = newEnvFor(env, x.Scope)
				ip.defineVar(iterEnv, x.Name, x.Ref, item, x.DeclKind == ast.DeclConst)
			} else if err := ip.assignIdent(iterEnv, x.Name, x.Ref, item); err != nil {
				return ctrlNormal, nil, &RuntimeError{Msg: err.Error(), Pos: x.Pos()}
			}
			c, v, err := ip.execStmt(x.Body, iterEnv)
			if err != nil {
				return ctrlNormal, nil, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c, v, nil
			}
		}
		return ctrlNormal, undef, nil
	case *ast.WhileStmt:
		for {
			if err := ip.step(x.Pos()); err != nil {
				return ctrlNormal, nil, err
			}
			cond, err := ip.eval(x.Cond, env)
			if err != nil {
				return ctrlNormal, nil, err
			}
			if !Truthy(cond) {
				break
			}
			c, v, err := ip.execStmt(x.Body, env)
			if err != nil {
				return ctrlNormal, nil, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c, v, nil
			}
		}
		return ctrlNormal, undef, nil
	case *ast.DoWhileStmt:
		for {
			if err := ip.step(x.Pos()); err != nil {
				return ctrlNormal, nil, err
			}
			c, v, err := ip.execStmt(x.Body, env)
			if err != nil {
				return ctrlNormal, nil, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c, v, nil
			}
			cond, err := ip.eval(x.Cond, env)
			if err != nil {
				return ctrlNormal, nil, err
			}
			if !Truthy(cond) {
				break
			}
		}
		return ctrlNormal, undef, nil
	case *ast.BreakStmt:
		return ctrlBreak, undef, nil
	case *ast.ContinueStmt:
		return ctrlContinue, undef, nil
	case *ast.ThrowStmt:
		v, err := ip.eval(x.Value, env)
		if err != nil {
			return ctrlNormal, nil, err
		}
		return ctrlNormal, nil, &Throw{Val: v}
	case *ast.TryStmt:
		c, v, err := ip.execStmts(x.Body.Body, newEnvFor(env, x.Body.Scope))
		if err != nil {
			if th, ok := err.(*Throw); ok && x.Catch != nil {
				catchEnv := newEnvFor(env, x.Catch.Scope)
				if x.CatchVar != "" {
					ip.defineVar(catchEnv, x.CatchVar, x.CatchRef, th.Val, false)
				}
				c, v, err = ip.execStmts(x.Catch.Body, catchEnv)
			}
		}
		if x.Finally != nil {
			fc, fv, ferr := ip.execStmts(x.Finally.Body, newEnvFor(env, x.Finally.Scope))
			if ferr != nil {
				return ctrlNormal, nil, ferr
			}
			if fc != ctrlNormal {
				return fc, fv, nil
			}
		}
		return c, v, err
	case *ast.SwitchStmt:
		disc, err := ip.eval(x.Disc, env)
		if err != nil {
			return ctrlNormal, nil, err
		}
		swEnv := newEnvFor(env, x.Scope)
		matched := false
		for _, cs := range x.Cases {
			if !matched && cs.Test != nil {
				tv, err := ip.eval(cs.Test, swEnv)
				if err != nil {
					return ctrlNormal, nil, err
				}
				if !StrictEquals(disc, tv) {
					continue
				}
				matched = true
			} else if !matched {
				continue // default only matches on fallthrough pass below
			}
			c, v, err := ip.execStmts(cs.Body, swEnv)
			if err != nil {
				return ctrlNormal, nil, err
			}
			if c == ctrlBreak {
				return ctrlNormal, undef, nil
			}
			if c != ctrlNormal {
				return c, v, nil
			}
		}
		if !matched {
			// run default clause (and fall through) if present
			started := false
			for _, cs := range x.Cases {
				if cs.Test == nil {
					started = true
				}
				if !started {
					continue
				}
				c, v, err := ip.execStmts(cs.Body, swEnv)
				if err != nil {
					return ctrlNormal, nil, err
				}
				if c == ctrlBreak {
					return ctrlNormal, undef, nil
				}
				if c != ctrlNormal {
					return c, v, nil
				}
			}
		}
		return ctrlNormal, undef, nil
	case *ast.ClassDecl:
		fn := ip.makeClass(x, env)
		ip.defineVar(env, x.Name, x.Ref, fn, false)
		return ctrlNormal, undef, nil
	case *ast.EmptyStmt:
		return ctrlNormal, undef, nil
	}
	return ctrlNormal, nil, &RuntimeError{Msg: fmt.Sprintf("unknown statement %T", s), Pos: s.Pos()}
}

func (ip *Interp) makeClass(x *ast.ClassDecl, env *Env) *Function {
	fn := &Function{
		Name:    x.Name,
		Env:     env,
		IsClass: true,
		Methods: map[string]*ast.FuncLit{},
		Statics: map[string]*ast.FuncLit{},
	}
	if x.SuperClass != nil {
		if sv, err := ip.eval(x.SuperClass, env); err == nil {
			if sf, ok := sv.(*Function); ok {
				fn.Super = sf
			}
		}
	}
	for _, m := range x.Methods {
		if m.Static {
			fn.Statics[m.Name] = m.Fn
		} else {
			fn.Methods[m.Name] = m.Fn
		}
	}
	return fn
}

// iterationItems materializes the iteration sequence for for-in / for-of.
func (ip *Interp) iterationItems(obj Value, kind ast.ForInKind, pos ast.Pos) ([]Value, error) {
	obj = dift.Unwrap(obj)
	switch kind {
	case ast.ForOf:
		switch x := obj.(type) {
		case *Array:
			out := make([]Value, len(x.Elems))
			copy(out, x.Elems)
			return out, nil
		case string:
			out := make([]Value, 0, len(x))
			for _, r := range x {
				out = append(out, string(r))
			}
			return out, nil
		case *Object:
			// allow iterating objects that carry an internal element list
			if arr, ok := x.Host.(*Array); ok {
				out := make([]Value, len(arr.Elems))
				copy(out, arr.Elems)
				return out, nil
			}
		}
		return nil, &RuntimeError{Msg: fmt.Sprintf("%s is not iterable", TypeOf(obj)), Pos: pos}
	default: // ForIn: keys
		switch x := obj.(type) {
		case *Object:
			keys := x.Keys()
			out := make([]Value, len(keys))
			for i, k := range keys {
				out[i] = k
			}
			return out, nil
		case *Array:
			out := make([]Value, len(x.Elems))
			for i := range x.Elems {
				out[i] = formatNumber(float64(i))
			}
			return out, nil
		}
		return nil, nil // for-in over primitives iterates nothing
	}
}

// ---------------------------------------------------------------------------
// Expressions

func (ip *Interp) eval(e ast.Expr, env *Env) (Value, error) {
	if err := ip.step(e.Pos()); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := ip.lookupIdent(env, x.Name, x.Ref); ok {
			return v, nil
		}
		return nil, &RuntimeError{Msg: fmt.Sprintf("%q is not defined", x.Name), Pos: x.Pos()}
	case *ast.NumberLit:
		return x.Value, nil
	case *ast.StringLit:
		return x.Value, nil
	case *ast.BoolLit:
		return x.Value, nil
	case *ast.NullLit:
		return null, nil
	case *ast.UndefinedLit:
		return undef, nil
	case *ast.ThisExpr:
		if v, ok := ip.lookupIdent(env, "this", x.Ref); ok {
			return v, nil
		}
		return undef, nil
	case *ast.TemplateLit:
		var b strings.Builder
		for i, q := range x.Quasis {
			b.WriteString(q)
			if i < len(x.Exprs) {
				v, err := ip.eval(x.Exprs[i], env)
				if err != nil {
					return nil, err
				}
				b.WriteString(ToString(v))
			}
		}
		if err := ip.alloc(int64(b.Len()), x.Pos()); err != nil {
			return nil, err
		}
		return b.String(), nil
	case *ast.ArrayLit:
		var elems []Value
		for _, el := range x.Elems {
			if sp, ok := el.(*ast.SpreadExpr); ok {
				sv, err := ip.eval(sp.X, env)
				if err != nil {
					return nil, err
				}
				if arr, ok := dift.Unwrap(sv).(*Array); ok {
					elems = append(elems, arr.Elems...)
					continue
				}
				return nil, &RuntimeError{Msg: "spread of non-array", Pos: sp.Pos()}
			}
			v, err := ip.eval(el, env)
			if err != nil {
				return nil, err
			}
			elems = append(elems, v)
		}
		if err := ip.alloc(int64(len(elems))+1, x.Pos()); err != nil {
			return nil, err
		}
		return NewArray(elems...), nil
	case *ast.ObjectLit:
		if err := ip.alloc(int64(len(x.Props))+1, x.Pos()); err != nil {
			return nil, err
		}
		o := NewObject()
		for _, prop := range x.Props {
			switch {
			case prop.Spread:
				sv, err := ip.eval(prop.Value, env)
				if err != nil {
					return nil, err
				}
				if src, ok := dift.Unwrap(sv).(*Object); ok {
					for _, k := range src.Keys() {
						pv, _ := src.GetOwn(k)
						o.Set(k, pv)
					}
				}
			case prop.Computed:
				kv, err := ip.eval(prop.KeyExpr, env)
				if err != nil {
					return nil, err
				}
				v, err := ip.eval(prop.Value, env)
				if err != nil {
					return nil, err
				}
				o.Set(ToString(kv), v)
			default:
				v, err := ip.eval(prop.Value, env)
				if err != nil {
					return nil, err
				}
				o.Set(prop.Key, v)
			}
		}
		return o, nil
	case *ast.FuncLit:
		return ip.withCode(NewFunction(x.Name, x, env)), nil
	case *ast.CallExpr:
		return ip.evalCall(x, env)
	case *ast.NewExpr:
		return ip.evalNew(x, env)
	case *ast.MemberExpr:
		obj, err := ip.eval(x.Object, env)
		if err != nil {
			return nil, err
		}
		name, err := ip.memberName(x, env)
		if err != nil {
			return nil, err
		}
		if !x.Computed && !ip.NoResolve {
			if o, isObj := dift.Unwrap(obj).(*Object); isObj {
				if v, hit := ip.icRead(x, o, name); hit {
					return v, nil
				}
			}
		}
		return ip.GetMember(obj, name, x.Pos())
	case *ast.BinaryExpr:
		l, err := ip.eval(x.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := ip.eval(x.Right, env)
		if err != nil {
			return nil, err
		}
		return ip.BinaryOp(x.Op, l, r, x.Pos())
	case *ast.LogicalExpr:
		l, err := ip.eval(x.Left, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "&&":
			if !Truthy(l) {
				return l, nil
			}
		case "||":
			if Truthy(l) {
				return l, nil
			}
		case "??":
			if !IsNullish(dift.Unwrap(l)) {
				return l, nil
			}
		}
		return ip.eval(x.Right, env)
	case *ast.UnaryExpr:
		if x.Op == "delete" {
			if mem, ok := x.X.(*ast.MemberExpr); ok {
				obj, err := ip.eval(mem.Object, env)
				if err != nil {
					return nil, err
				}
				name, err := ip.memberName(mem, env)
				if err != nil {
					return nil, err
				}
				if o, ok := dift.Unwrap(obj).(*Object); ok {
					o.Delete(name)
				}
				return true, nil
			}
			return true, nil
		}
		if x.Op == "typeof" {
			// typeof of an undefined identifier does not throw
			if id, ok := x.X.(*ast.Ident); ok {
				if _, found := ip.lookupIdent(env, id.Name, id.Ref); !found {
					return "undefined", nil
				}
			}
		}
		v, err := ip.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "!":
			return !Truthy(v), nil
		case "-":
			return -ToNumber(v), nil
		case "+":
			return ToNumber(v), nil
		case "~":
			return float64(^int64(ToNumber(v))), nil
		case "typeof":
			return TypeOf(v), nil
		case "void":
			return undef, nil
		}
		return nil, &RuntimeError{Msg: "unknown unary op " + x.Op, Pos: x.Pos()}
	case *ast.UpdateExpr:
		old, err := ip.evalTarget(x.X, env, x.Pos())
		if err != nil {
			return nil, err
		}
		n := ToNumber(old)
		var next float64
		if x.Op == "++" {
			next = n + 1
		} else {
			next = n - 1
		}
		if err := ip.assignTo(x.X, next, env); err != nil {
			return nil, err
		}
		if x.Prefix {
			return next, nil
		}
		return n, nil
	case *ast.AssignExpr:
		return ip.evalAssign(x, env)
	case *ast.CondExpr:
		c, err := ip.eval(x.Cond, env)
		if err != nil {
			return nil, err
		}
		if Truthy(c) {
			return ip.eval(x.Then, env)
		}
		return ip.eval(x.Else, env)
	case *ast.SeqExpr:
		var last Value = undef
		for _, sub := range x.Exprs {
			var err error
			last, err = ip.eval(sub, env)
			if err != nil {
				return nil, err
			}
		}
		return last, nil
	case *ast.AwaitExpr:
		v, err := ip.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		return ip.ResolvePromise(v), nil
	case *ast.SpreadExpr:
		return nil, &RuntimeError{Msg: "spread in unexpected position", Pos: x.Pos()}
	}
	return nil, &RuntimeError{Msg: fmt.Sprintf("unknown expression %T", e), Pos: e.Pos()}
}

// memberName resolves the property name of a member expression.
func (ip *Interp) memberName(x *ast.MemberExpr, env *Env) (string, error) {
	if !x.Computed {
		return x.Property, nil
	}
	idx, err := ip.eval(x.Index, env)
	if err != nil {
		return "", err
	}
	return ToString(idx), nil
}

// evalTarget reads the current value of an assignable expression.
func (ip *Interp) evalTarget(e ast.Expr, env *Env, pos ast.Pos) (Value, error) {
	switch t := e.(type) {
	case *ast.Ident:
		if v, ok := ip.lookupIdent(env, t.Name, t.Ref); ok {
			return v, nil
		}
		return undef, nil
	case *ast.MemberExpr:
		obj, err := ip.eval(t.Object, env)
		if err != nil {
			return nil, err
		}
		name, err := ip.memberName(t, env)
		if err != nil {
			return nil, err
		}
		return ip.GetMember(obj, name, pos)
	}
	return nil, &RuntimeError{Msg: "invalid assignment target", Pos: pos}
}

func (ip *Interp) evalAssign(x *ast.AssignExpr, env *Env) (Value, error) {
	var newVal Value
	if x.Op == "=" {
		v, err := ip.eval(x.Value, env)
		if err != nil {
			return nil, err
		}
		newVal = v
	} else if x.Op == "&&=" || x.Op == "||=" || x.Op == "??=" {
		old, err := ip.evalTarget(x.Target, env, x.Pos())
		if err != nil {
			return nil, err
		}
		shortCircuit := false
		switch x.Op {
		case "&&=":
			shortCircuit = !Truthy(old)
		case "||=":
			shortCircuit = Truthy(old)
		case "??=":
			shortCircuit = !IsNullish(dift.Unwrap(old))
		}
		if shortCircuit {
			return old, nil
		}
		v, err := ip.eval(x.Value, env)
		if err != nil {
			return nil, err
		}
		newVal = v
	} else {
		old, err := ip.evalTarget(x.Target, env, x.Pos())
		if err != nil {
			return nil, err
		}
		rhs, err := ip.eval(x.Value, env)
		if err != nil {
			return nil, err
		}
		op := strings.TrimSuffix(x.Op, "=")
		v, err := ip.BinaryOp(op, old, rhs, x.Pos())
		if err != nil {
			return nil, err
		}
		newVal = v
	}
	if err := ip.assignTo(x.Target, newVal, env); err != nil {
		return nil, err
	}
	return newVal, nil
}

func (ip *Interp) assignTo(target ast.Expr, v Value, env *Env) error {
	switch t := target.(type) {
	case *ast.Ident:
		if err := ip.assignIdent(env, t.Name, t.Ref, v); err != nil {
			return &RuntimeError{Msg: err.Error(), Pos: target.Pos()}
		}
		return nil
	case *ast.MemberExpr:
		obj, err := ip.eval(t.Object, env)
		if err != nil {
			return err
		}
		name, err := ip.memberName(t, env)
		if err != nil {
			return err
		}
		return ip.SetMember(obj, name, v, t.Pos())
	}
	return &RuntimeError{Msg: "invalid assignment target", Pos: target.Pos()}
}

// newEnvFor creates the environment for a statically-resolved scope, or a
// plain map-based one when the resolver left it un-annotated.
func newEnvFor(parent *Env, scope *ast.ScopeInfo) *Env {
	if scope == nil {
		return NewEnv(parent)
	}
	return NewScopeEnv(parent, scope)
}

// defineVar declares name in env, going through the resolved slot when the
// declaration carries one.
func (ip *Interp) defineVar(env *Env, name string, ref *ast.VarRef, v Value, isConst bool) {
	if ref != nil && env.DefineSlot(ref.Slot, v, isConst) {
		ip.envSlotWrites++
		return
	}
	ip.envDynWrites++
	ip.defineMap(env, name, v, isConst)
}

// defineMap is env.Define for a name with no resolved slot; outside
// Globals it moves envMapDefines.
func (ip *Interp) defineMap(env *Env, name string, v Value, isConst bool) {
	if env != ip.Globals {
		ip.envMapDefines++
	}
	env.Define(name, v, isConst)
}

// lookupIdent reads a variable, through the resolved slot coordinate when
// available and bound, falling back to the dynamic map walk.
func (ip *Interp) lookupIdent(env *Env, name string, ref *ast.VarRef) (Value, bool) {
	if ref != nil {
		if v, ok := env.SlotRead(ref.Depth, ref.Slot); ok {
			ip.envSlotReads++
			return v, true
		}
	}
	ip.envDynReads++
	return env.Lookup(name)
}

// assignIdent writes a variable through the resolved coordinate when
// available, falling back to the dynamic walk. An undeclared name becomes
// an implicit global — the single sloppy-mode semantics shared by plain
// assignments, compound assignments, update expressions and undeclared
// for-in/of loop variables.
func (ip *Interp) assignIdent(env *Env, name string, ref *ast.VarRef, v Value) error {
	if ref != nil {
		done, err := env.SlotAssign(ref.Depth, ref.Slot, v)
		if err != nil {
			return err
		}
		if done {
			ip.envSlotWrites++
			return nil
		}
	}
	ip.envDynWrites++
	if err := env.Assign(name, v); err != nil {
		if errors.Is(err, ErrNotDefined) {
			// implicit global definition (sloppy-mode JS; some corpus
			// apps assign undeclared names)
			env.Global().Define(name, v, false)
			return nil
		}
		return err
	}
	return nil
}

// BinaryOp evaluates a binary operator with JS-lite semantics. Tracked
// operands are transparently unwrapped (the uninstrumented path does not
// propagate labels — that is precisely what τ.binaryOp instrumentation
// adds).
func (ip *Interp) BinaryOp(op string, l, r Value, pos ast.Pos) (Value, error) {
	lu, ru := dift.Unwrap(l), dift.Unwrap(r)
	switch op {
	case "+":
		// string concatenation is the classic memory amplifier (s = s + s
		// doubles per iteration); charge the result length
		if ls, ok := lu.(string); ok {
			rs := ToString(ru)
			if err := ip.alloc(int64(len(ls)+len(rs)), pos); err != nil {
				return nil, err
			}
			return ls + rs, nil
		}
		if rs, ok := ru.(string); ok {
			ls := ToString(lu)
			if err := ip.alloc(int64(len(ls)+len(rs)), pos); err != nil {
				return nil, err
			}
			return ls + rs, nil
		}
		if _, ok := lu.(*Array); ok {
			return ToString(lu) + ToString(ru), nil
		}
		if _, ok := lu.(*Object); ok {
			return ToString(lu) + ToString(ru), nil
		}
		return ToNumber(lu) + ToNumber(ru), nil
	case "-":
		return ToNumber(lu) - ToNumber(ru), nil
	case "*":
		return ToNumber(lu) * ToNumber(ru), nil
	case "/":
		return ToNumber(lu) / ToNumber(ru), nil
	case "%":
		return math.Mod(ToNumber(lu), ToNumber(ru)), nil
	case "**":
		return math.Pow(ToNumber(lu), ToNumber(ru)), nil
	case "==":
		return LooseEquals(lu, ru), nil
	case "!=":
		return !LooseEquals(lu, ru), nil
	case "===":
		return StrictEquals(lu, ru), nil
	case "!==":
		return !StrictEquals(lu, ru), nil
	case "<", ">", "<=", ">=":
		if ls, lok := lu.(string); lok {
			if rs, rok := ru.(string); rok {
				switch op {
				case "<":
					return ls < rs, nil
				case ">":
					return ls > rs, nil
				case "<=":
					return ls <= rs, nil
				default:
					return ls >= rs, nil
				}
			}
		}
		ln, rn := ToNumber(lu), ToNumber(ru)
		switch op {
		case "<":
			return ln < rn, nil
		case ">":
			return ln > rn, nil
		case "<=":
			return ln <= rn, nil
		default:
			return ln >= rn, nil
		}
	case "&":
		return float64(int64(ToNumber(lu)) & int64(ToNumber(ru))), nil
	case "|":
		return float64(int64(ToNumber(lu)) | int64(ToNumber(ru))), nil
	case "^":
		return float64(int64(ToNumber(lu)) ^ int64(ToNumber(ru))), nil
	case "<<":
		return float64(int64(ToNumber(lu)) << (int64(ToNumber(ru)) & 63)), nil
	case ">>", ">>>":
		return float64(int64(ToNumber(lu)) >> (int64(ToNumber(ru)) & 63)), nil
	case "in":
		if o, ok := ru.(*Object); ok {
			_, found := o.Get(ToString(lu))
			return found, nil
		}
		return false, nil
	case "instanceof":
		if fn, ok := ru.(*Function); ok {
			if o, isObj := lu.(*Object); isObj {
				return o.Class == fn.Name, nil
			}
		}
		return false, nil
	}
	return nil, &RuntimeError{Msg: "unknown binary op " + op, Pos: pos}
}
