package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"turnstile/internal/ast"
	"turnstile/internal/dift"
	"turnstile/internal/vm"
)

// evalCall evaluates a call expression, routing method calls so `this` is
// bound to the receiver. A tracker call (vm.TrackerOp) charges the step
// its `__t` ident would and goes straight to the installed τ method, as
// the VM's OpTrackerCall does.
func (ip *Interp) evalCall(x *ast.CallExpr, env *Env) (Value, error) {
	args, err := ip.evalArgs(x.Args, env)
	if err != nil {
		return nil, err
	}
	if op := vm.TrackerOp(x); op != 0 {
		mem := x.Callee.(*ast.MemberExpr)
		if err := ip.step(mem.Object.Pos()); err != nil {
			return nil, err
		}
		fn := ip.tauFns[op]
		if fn == nil {
			return nil, trackerUndefined(mem)
		}
		return fn.Fn(ip, undef, args)
	}
	if mem, ok := x.Callee.(*ast.MemberExpr); ok {
		recv, err := ip.eval(mem.Object, env)
		if err != nil {
			return nil, err
		}
		name, err := ip.memberName(mem, env)
		if err != nil {
			return nil, err
		}
		if !mem.Computed && !ip.NoResolve {
			if o, isObj := dift.Unwrap(recv).(*Object); isObj {
				if fn, hit := ip.icMethod(mem, o, name); hit {
					return ip.CallFunction(fn, o, args, x.Pos())
				}
			}
		}
		return ip.CallMethod(recv, name, args, x.Pos())
	}
	fn, err := ip.eval(x.Callee, env)
	if err != nil {
		return nil, err
	}
	return ip.CallFunction(fn, undef, args, x.Pos())
}

func (ip *Interp) evalArgs(exprs []ast.Expr, env *Env) ([]Value, error) {
	var args []Value
	for _, a := range exprs {
		if sp, ok := a.(*ast.SpreadExpr); ok {
			sv, err := ip.eval(sp.X, env)
			if err != nil {
				return nil, err
			}
			if arr, ok := dift.Unwrap(sv).(*Array); ok {
				args = append(args, arr.Elems...)
				continue
			}
			return nil, &RuntimeError{Msg: "spread of non-array argument", Pos: sp.Pos()}
		}
		v, err := ip.eval(a, env)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return args, nil
}

// CallMethod invokes recv[name](args...), covering builtin methods on
// strings, arrays, objects and functions.
func (ip *Interp) CallMethod(recv Value, name string, args []Value, pos ast.Pos) (Value, error) {
	recvU := dift.Unwrap(recv)
	switch r := recvU.(type) {
	case string:
		return ip.stringMethod(r, name, args, pos)
	case float64:
		return ip.numberMethod(r, name, args, pos)
	case *Array:
		return ip.arrayMethod(r, name, args, pos)
	case *Object:
		if v, ok := r.Get(name); ok {
			return ip.CallFunction(v, r, args, pos)
		}
		return nil, &RuntimeError{Msg: fmt.Sprintf("%s.%s is not a function", r.Class, name), Pos: pos}
	case *Function:
		// static class methods and function-object properties
		if r.IsClass {
			if fl, ok := r.Statics[name]; ok {
				return ip.invokeFuncLit(fl, r.Env, r, args, pos)
			}
		}
		switch name {
		case "call":
			this := Value(undef)
			rest := args
			if len(args) > 0 {
				this = args[0]
				rest = args[1:]
			}
			return ip.CallFunction(r, this, rest, pos)
		case "apply":
			this := Value(undef)
			var rest []Value
			if len(args) > 0 {
				this = args[0]
			}
			if len(args) > 1 {
				if arr, ok := dift.Unwrap(args[1]).(*Array); ok {
					rest = arr.Elems
				}
			}
			return ip.CallFunction(r, this, rest, pos)
		case "bind":
			this := Value(undef)
			if len(args) > 0 {
				this = args[0]
			}
			bound := *r
			bound.Labels = dift.Labels{}
			bound.This = this
			return &bound, nil
		}
		if v, ok := r.Get(name); ok {
			return ip.CallFunction(v, r, args, pos)
		}
		return nil, &RuntimeError{Msg: fmt.Sprintf("%s.%s is not a function", r.Name, name), Pos: pos}
	case *HostFunc:
		if v, ok := r.Get(name); ok {
			return ip.CallFunction(v, r, args, pos)
		}
		return nil, &RuntimeError{Msg: fmt.Sprintf("%s.%s is not a function", r.Name, name), Pos: pos}
	}
	return nil, &RuntimeError{Msg: fmt.Sprintf("cannot call method %q of %s", name, TypeOf(recvU)), Pos: pos}
}

// CallFunction invokes a callable value with an explicit this binding.
// Called from outside any execution (a nodered delivery, a label
// function), it is a host entry of its own.
func (ip *Interp) CallFunction(fn Value, this Value, args []Value, pos ast.Pos) (Value, error) {
	if ip.entries == 0 {
		ip.enter()
		defer ip.exit()
	}
	switch f := dift.Unwrap(fn).(type) {
	case *Function:
		if f.IsClass {
			return nil, &RuntimeError{Msg: fmt.Sprintf("class %s cannot be called without new", f.Name), Pos: pos}
		}
		if f.This != nil {
			this = f.This
		}
		return ip.invokeFunc(f.Decl, f.Code, f.Env, this, args, pos)
	case *HostFunc:
		return f.Fn(ip, this, args)
	}
	return nil, &RuntimeError{Msg: fmt.Sprintf("%s is not a function", TypeOf(fn)), Pos: pos}
}

func (ip *Interp) invokeFuncLit(decl *ast.FuncLit, closure *Env, this Value, args []Value, pos ast.Pos) (Value, error) {
	return ip.invokeFunc(decl, ip.codeFor(decl), closure, this, args, pos)
}

// invokeFunc is the shared call prologue (budget charges, depth caps,
// this/arguments/param binding); the body then runs either as bytecode
// (code non-nil, normally taken straight off Function.Code so the hot
// path pays no registry lookup) or through the tree-walker.
func (ip *Interp) invokeFunc(decl *ast.FuncLit, code *vm.Chunk, closure *Env, this Value, args []Value, pos ast.Pos) (Value, error) {
	if err := ip.step(pos); err != nil {
		return nil, err
	}
	// Cooperative call-depth cap: a Go stack overflow is unrecoverable, so
	// this must trip before MiniJS recursion can reach it. The hard cap
	// applies even with no Guard; a Guard with a tighter MaxDepth trips
	// first with a typed BudgetError.
	ip.callDepth++
	if g := ip.Guard; g != nil {
		// guarded path: defers keep depth and guard frames balanced even
		// when a contained panic unwinds through the call
		defer func() { ip.callDepth-- }()
		if err := g.Enter(""); err != nil {
			ip.siteOnTrip(pos)
			return nil, err
		}
		defer g.Exit()
		return ip.invokeBody(decl, code, closure, this, args, pos)
	}
	// unguarded path: explicit decrement — two deferred frames per call
	// are measurable on call-heavy code, and without a Guard a panic
	// abandons the interpreter anyway (guard.Contain discards it)
	v, err := ip.invokeBody(decl, code, closure, this, args, pos)
	ip.callDepth--
	return v, err
}

func (ip *Interp) invokeBody(decl *ast.FuncLit, code *vm.Chunk, closure *Env, this Value, args []Value, pos ast.Pos) (Value, error) {
	if ip.MaxCallDepth > 0 && ip.callDepth > ip.MaxCallDepth {
		return nil, &RuntimeError{
			Msg: fmt.Sprintf("call stack exceeded %d frames (possible unbounded recursion)", ip.MaxCallDepth),
			Pos: pos,
		}
	}
	vmBody := code != nil && ip.Engine == EngineVM
	// compiled bodies that provably cannot capture their environment run
	// in a pooled env recycled after the call (two allocations saved per
	// call on closure-free hot paths)
	pooledEnv := vmBody && code.NoCapture && decl.Scope != nil
	var env *Env
	if pooledEnv {
		env = ip.getCallEnv(closure, decl.Scope)
	} else {
		env = newEnvFor(closure, decl.Scope)
	}
	// arrow functions inherit `this` lexically: do not rebind
	if !decl.Arrow {
		// resolver slot layout: non-arrow scopes place this/arguments at
		// slots 0 and 1; DefineSlot falls back for unresolved programs
		if !env.DefineSlot(0, this, false) {
			ip.defineMap(env, "this", this, false)
		}
		// the arguments array is only materialized when the compiler saw
		// an `arguments` identifier somewhere in the body (tree-walked
		// bodies always materialize: no compile-time scan ran)
		if !vmBody || code.NeedsArguments {
			argsArr := NewArray(args...)
			if !env.DefineSlot(1, argsArr, false) {
				ip.defineMap(env, "arguments", argsArr, false)
			}
		}
	}
	for i, p := range decl.Params {
		var v Value
		switch {
		case p.Rest:
			rest := NewArray()
			if i < len(args) {
				rest.Elems = append(rest.Elems, args[i:]...)
			}
			v = rest
		case i < len(args):
			v = args[i]
		default:
			v = undef
		}
		if p.Ref == nil || !env.DefineSlot(p.Ref.Slot, v, false) {
			ip.defineMap(env, p.Name, v, false)
		}
	}
	if vmBody {
		c, v, err := ip.runChunk(code, env)
		if pooledEnv {
			ip.putCallEnv(env)
		}
		if err != nil {
			return nil, err
		}
		if c == ctrlReturn {
			return v, nil
		}
		return undef, nil
	}
	if decl.ExprRet != nil {
		return ip.eval(decl.ExprRet, env)
	}
	c, v, err := ip.execStmts(decl.Body.Body, env)
	if err != nil {
		return nil, err
	}
	if c == ctrlReturn {
		return v, nil
	}
	return undef, nil
}

// evalNew constructs an object: user classes, constructor functions (with
// prototype chains) and host constructors (Promise, Error, ...).
func (ip *Interp) evalNew(x *ast.NewExpr, env *Env) (Value, error) {
	callee, err := ip.eval(x.Callee, env)
	if err != nil {
		return nil, err
	}
	args, err := ip.evalArgs(x.Args, env)
	if err != nil {
		return nil, err
	}
	return ip.Construct(callee, args, x.Pos())
}

// Construct implements `new callee(args...)`.
func (ip *Interp) Construct(callee Value, args []Value, pos ast.Pos) (Value, error) {
	switch f := dift.Unwrap(callee).(type) {
	case *Function:
		obj := NewObject()
		obj.Class = f.Name
		if f.IsClass {
			obj.Proto = ip.classProto(f)
			// the constructor may be inherited from a superclass
			for cls := f; cls != nil; cls = cls.Super {
				if ctor, ok := cls.Methods["constructor"]; ok {
					if _, err := ip.invokeFuncLit(ctor, cls.Env, obj, args, pos); err != nil {
						return nil, err
					}
					break
				}
			}
			return obj, nil
		}
		// constructor function: instance inherits Foo.prototype
		obj.Proto = f.Prototype()
		ret, err := ip.invokeFuncLit(f.Decl, f.Env, obj, args, pos)
		if err != nil {
			return nil, err
		}
		if ro, ok := dift.Unwrap(ret).(*Object); ok {
			return ro, nil
		}
		return obj, nil
	case *HostFunc:
		return f.Fn(ip, undef, args)
	}
	return nil, &RuntimeError{Msg: fmt.Sprintf("%s is not a constructor", TypeOf(callee)), Pos: pos}
}

// classProto builds (and caches on the class) the prototype object holding
// the class methods, linking superclass prototypes.
func (ip *Interp) classProto(f *Function) *Object {
	if p, ok := f.Get("__proto_cache__"); ok {
		if po, isObj := p.(*Object); isObj {
			return po
		}
	}
	proto := NewObject()
	if f.Super != nil {
		proto.Proto = ip.classProto(f.Super)
	}
	for name, fl := range f.Methods {
		if name == "constructor" {
			continue
		}
		proto.Set(name, ip.withCode(NewFunction(name, fl, f.Env)))
	}
	f.Set("__proto_cache__", proto)
	return proto
}

// GetMember reads obj[name] with builtin semantics for every value kind.
func (ip *Interp) GetMember(obj Value, name string, pos ast.Pos) (Value, error) {
	objU := dift.Unwrap(obj)
	switch o := objU.(type) {
	case *Object:
		if v, ok := o.Get(name); ok {
			// methods read via the prototype chain bind their receiver so
			// extracted handlers (cb = obj.handler) keep working
			if f, isFn := v.(*Function); isFn && f.This == nil {
				if _, own := o.GetOwn(name); !own {
					bound := *f
					bound.Labels = dift.Labels{}
					bound.This = o
					return &bound, nil
				}
			}
			return v, nil
		}
		if name == "length" {
			if arr, ok := o.Host.(*Array); ok {
				return float64(len(arr.Elems)), nil
			}
		}
		return undef, nil
	case *Array:
		if name == "length" {
			return float64(len(o.Elems)), nil
		}
		if idx, err := strconv.Atoi(name); err == nil {
			if idx >= 0 && idx < len(o.Elems) {
				return o.Elems[idx], nil
			}
			return undef, nil
		}
		return undef, nil
	case string:
		if name == "length" {
			return float64(len(o)), nil
		}
		if idx, err := strconv.Atoi(name); err == nil {
			if idx >= 0 && idx < len(o) {
				return string(o[idx]), nil
			}
			return undef, nil
		}
		return undef, nil
	case *Function:
		if name == "prototype" {
			return o.Prototype(), nil
		}
		if name == "name" {
			return o.Name, nil
		}
		if v, ok := o.Get(name); ok {
			return v, nil
		}
		return undef, nil
	case *HostFunc:
		if name == "name" {
			return o.Name, nil
		}
		if v, ok := o.Get(name); ok {
			return v, nil
		}
		return undef, nil
	case Undefined, Null:
		return nil, &Throw{Val: ip.MakeError("TypeError",
			fmt.Sprintf("cannot read property %q of %s (at %s)", name, ToString(objU), pos))}
	}
	return undef, nil
}

// SetMember writes obj[name] = v.
func (ip *Interp) SetMember(obj Value, name string, v Value, pos ast.Pos) error {
	objU := dift.Unwrap(obj)
	switch o := objU.(type) {
	case *Object:
		o.Set(name, v)
		return nil
	case *Array:
		if idx, err := strconv.Atoi(name); err == nil && idx >= 0 {
			for len(o.Elems) <= idx {
				o.Elems = append(o.Elems, undef)
			}
			o.Elems[idx] = v
			return nil
		}
		if name == "length" {
			n := int(ToNumber(v))
			if n < len(o.Elems) {
				o.Elems = o.Elems[:n]
			}
			return nil
		}
		return nil
	case *Function:
		o.Set(name, v)
		return nil
	case Undefined, Null:
		return &Throw{Val: ip.MakeError("TypeError",
			fmt.Sprintf("cannot set property %q of %s (at %s)", name, ToString(objU), pos))}
	}
	// writing properties on primitives is a silent no-op in sloppy JS
	return nil
}

// MakeError builds an Error-like object.
func (ip *Interp) MakeError(class, message string) *Object {
	o := NewObject()
	o.Class = class
	o.Set("name", class)
	o.Set("message", message)
	return o
}

// ---------------------------------------------------------------------------
// String / number / array builtin methods

func (ip *Interp) stringMethod(s string, name string, args []Value, pos ast.Pos) (Value, error) {
	arg := func(i int) Value {
		if i < len(args) {
			return dift.Unwrap(args[i])
		}
		return undef
	}
	switch name {
	case "split":
		sep, ok := arg(0).(string)
		if !ok {
			return NewArray(s), nil
		}
		var parts []string
		if sep == "" {
			for _, r := range s {
				parts = append(parts, string(r))
			}
		} else {
			parts = strings.Split(s, sep)
		}
		arr := NewArray()
		for _, p := range parts {
			arr.Elems = append(arr.Elems, p)
		}
		return arr, nil
	case "toUpperCase":
		return strings.ToUpper(s), nil
	case "toLowerCase":
		return strings.ToLower(s), nil
	case "trim":
		return strings.TrimSpace(s), nil
	case "indexOf":
		return float64(strings.Index(s, ToString(arg(0)))), nil
	case "lastIndexOf":
		return float64(strings.LastIndex(s, ToString(arg(0)))), nil
	case "includes":
		return strings.Contains(s, ToString(arg(0))), nil
	case "startsWith":
		return strings.HasPrefix(s, ToString(arg(0))), nil
	case "endsWith":
		return strings.HasSuffix(s, ToString(arg(0))), nil
	case "slice", "substring":
		start, end := sliceRange(len(s), args, name == "slice")
		return s[start:end], nil
	case "substr":
		start := int(ToNumber(arg(0)))
		if start < 0 {
			start = max(0, len(s)+start)
		}
		start = min(start, len(s))
		length := len(s) - start
		if len(args) > 1 {
			length = min(length, int(ToNumber(arg(1))))
		}
		return s[start : start+max(0, length)], nil
	case "charAt":
		i := int(ToNumber(arg(0)))
		if i < 0 || i >= len(s) {
			return "", nil
		}
		return string(s[i]), nil
	case "charCodeAt":
		i := int(ToNumber(arg(0)))
		if i < 0 || i >= len(s) {
			return math.NaN(), nil
		}
		return float64(s[i]), nil
	case "replace":
		old := ToString(arg(0))
		return strings.Replace(s, old, ToString(arg(1)), 1), nil
	case "replaceAll":
		return strings.ReplaceAll(s, ToString(arg(0)), ToString(arg(1))), nil
	case "repeat":
		n := int(ToNumber(arg(0)))
		if n < 0 || n > 1<<20 {
			return nil, &Throw{Val: ip.MakeError("RangeError", "invalid repeat count")}
		}
		if err := ip.alloc(int64(len(s))*int64(n), pos); err != nil {
			return nil, err
		}
		return strings.Repeat(s, n), nil
	case "padStart":
		width := int(ToNumber(arg(0)))
		if err := ip.alloc(int64(max(0, width-len(s))), pos); err != nil {
			return nil, err
		}
		pad := " "
		if p, ok := arg(1).(string); ok && p != "" {
			pad = p
		}
		for len(s) < width {
			s = pad + s
		}
		return s, nil
	case "concat":
		var b strings.Builder
		b.WriteString(s)
		for _, a := range args {
			b.WriteString(ToString(a))
		}
		if err := ip.alloc(int64(b.Len()), pos); err != nil {
			return nil, err
		}
		return b.String(), nil
	case "toString":
		return s, nil
	case "match", "search":
		// regex is out of scope for MiniJS; substring match
		if strings.Contains(s, ToString(arg(0))) {
			return NewArray(ToString(arg(0))), nil
		}
		return null, nil
	}
	return nil, &RuntimeError{Msg: fmt.Sprintf("string has no method %q", name), Pos: pos}
}

func (ip *Interp) numberMethod(n float64, name string, args []Value, pos ast.Pos) (Value, error) {
	switch name {
	case "toFixed":
		digits := 0
		if len(args) > 0 {
			digits = int(ToNumber(args[0]))
		}
		return strconv.FormatFloat(n, 'f', digits, 64), nil
	case "toString":
		return formatNumber(n), nil
	}
	return nil, &RuntimeError{Msg: fmt.Sprintf("number has no method %q", name), Pos: pos}
}

func (ip *Interp) arrayMethod(a *Array, name string, args []Value, pos ast.Pos) (Value, error) {
	arg := func(i int) Value {
		if i < len(args) {
			return args[i]
		}
		return undef
	}
	callCB := func(cb Value, el Value, i int) (Value, error) {
		return ip.CallFunction(cb, undef, []Value{el, float64(i), a}, pos)
	}
	switch name {
	case "push":
		if err := ip.alloc(int64(len(args)), pos); err != nil {
			return nil, err
		}
		a.Elems = append(a.Elems, args...)
		return float64(len(a.Elems)), nil
	case "pop":
		if len(a.Elems) == 0 {
			return undef, nil
		}
		v := a.Elems[len(a.Elems)-1]
		a.Elems = a.Elems[:len(a.Elems)-1]
		return v, nil
	case "shift":
		if len(a.Elems) == 0 {
			return undef, nil
		}
		v := a.Elems[0]
		a.Elems = a.Elems[1:]
		return v, nil
	case "unshift":
		if err := ip.alloc(int64(len(args)), pos); err != nil {
			return nil, err
		}
		a.Elems = append(append([]Value{}, args...), a.Elems...)
		return float64(len(a.Elems)), nil
	case "map":
		out := NewArray()
		for i, el := range a.Elems {
			v, err := callCB(arg(0), el, i)
			if err != nil {
				return nil, err
			}
			out.Elems = append(out.Elems, v)
		}
		return out, nil
	case "filter":
		out := NewArray()
		for i, el := range a.Elems {
			v, err := callCB(arg(0), el, i)
			if err != nil {
				return nil, err
			}
			if Truthy(v) {
				out.Elems = append(out.Elems, el)
			}
		}
		return out, nil
	case "forEach":
		for i, el := range a.Elems {
			if _, err := callCB(arg(0), el, i); err != nil {
				return nil, err
			}
		}
		return undef, nil
	case "reduce":
		var acc Value
		start := 0
		if len(args) > 1 {
			acc = args[1]
		} else {
			if len(a.Elems) == 0 {
				return nil, &Throw{Val: ip.MakeError("TypeError", "reduce of empty array with no initial value")}
			}
			acc = a.Elems[0]
			start = 1
		}
		for i := start; i < len(a.Elems); i++ {
			v, err := ip.CallFunction(arg(0), undef, []Value{acc, a.Elems[i], float64(i), a}, pos)
			if err != nil {
				return nil, err
			}
			acc = v
		}
		return acc, nil
	case "find":
		for i, el := range a.Elems {
			v, err := callCB(arg(0), el, i)
			if err != nil {
				return nil, err
			}
			if Truthy(v) {
				return el, nil
			}
		}
		return undef, nil
	case "findIndex":
		for i, el := range a.Elems {
			v, err := callCB(arg(0), el, i)
			if err != nil {
				return nil, err
			}
			if Truthy(v) {
				return float64(i), nil
			}
		}
		return float64(-1), nil
	case "some":
		for i, el := range a.Elems {
			v, err := callCB(arg(0), el, i)
			if err != nil {
				return nil, err
			}
			if Truthy(v) {
				return true, nil
			}
		}
		return false, nil
	case "every":
		for i, el := range a.Elems {
			v, err := callCB(arg(0), el, i)
			if err != nil {
				return nil, err
			}
			if !Truthy(v) {
				return false, nil
			}
		}
		return true, nil
	case "join":
		sep := ","
		if len(args) > 0 {
			sep = ToString(arg(0))
		}
		parts := make([]string, len(a.Elems))
		for i, el := range a.Elems {
			if IsNullish(dift.Unwrap(el)) {
				parts[i] = ""
			} else {
				parts[i] = ToString(el)
			}
		}
		return strings.Join(parts, sep), nil
	case "indexOf":
		for i, el := range a.Elems {
			if StrictEquals(el, arg(0)) {
				return float64(i), nil
			}
		}
		return float64(-1), nil
	case "includes":
		for _, el := range a.Elems {
			if StrictEquals(el, arg(0)) {
				return true, nil
			}
		}
		return false, nil
	case "slice":
		start, end := sliceRange(len(a.Elems), args, true)
		out := NewArray()
		out.Elems = append(out.Elems, a.Elems[start:end]...)
		return out, nil
	case "splice":
		start := int(ToNumber(arg(0)))
		if start < 0 {
			start = max(0, len(a.Elems)+start)
		}
		start = min(start, len(a.Elems))
		count := len(a.Elems) - start
		if len(args) > 1 {
			count = min(count, max(0, int(ToNumber(arg(1)))))
		}
		removed := NewArray()
		removed.Elems = append(removed.Elems, a.Elems[start:start+count]...)
		rest := append([]Value{}, a.Elems[start+count:]...)
		a.Elems = append(a.Elems[:start], append(args[min(2, len(args)):], rest...)...)
		return removed, nil
	case "concat":
		out := NewArray()
		out.Elems = append(out.Elems, a.Elems...)
		for _, ag := range args {
			if arr, ok := dift.Unwrap(ag).(*Array); ok {
				out.Elems = append(out.Elems, arr.Elems...)
			} else {
				out.Elems = append(out.Elems, ag)
			}
		}
		if err := ip.alloc(int64(len(out.Elems)), pos); err != nil {
			return nil, err
		}
		return out, nil
	case "reverse":
		for i, j := 0, len(a.Elems)-1; i < j; i, j = i+1, j-1 {
			a.Elems[i], a.Elems[j] = a.Elems[j], a.Elems[i]
		}
		return a, nil
	case "sort":
		var sortErr error
		cmp := arg(0)
		elems := a.Elems
		// insertion sort: stable, no closures over testing hooks
		for i := 1; i < len(elems); i++ {
			for j := i; j > 0; j-- {
				var less bool
				if IsUndefined(cmp) {
					less = ToString(elems[j]) < ToString(elems[j-1])
				} else {
					v, err := ip.CallFunction(cmp, undef, []Value{elems[j], elems[j-1]}, pos)
					if err != nil {
						sortErr = err
						break
					}
					less = ToNumber(v) < 0
				}
				if !less {
					break
				}
				elems[j], elems[j-1] = elems[j-1], elems[j]
			}
			if sortErr != nil {
				return nil, sortErr
			}
		}
		return a, nil
	case "flat":
		out := NewArray()
		for _, el := range a.Elems {
			if inner, ok := dift.Unwrap(el).(*Array); ok {
				out.Elems = append(out.Elems, inner.Elems...)
			} else {
				out.Elems = append(out.Elems, el)
			}
		}
		return out, nil
	case "toString":
		return ToString(a), nil
	}
	return nil, &RuntimeError{Msg: fmt.Sprintf("array has no method %q", name), Pos: pos}
}

// sliceRange computes [start, end) for slice/substring semantics.
func sliceRange(n int, args []Value, negFromEnd bool) (int, int) {
	start, end := 0, n
	if len(args) > 0 && !IsUndefined(dift.Unwrap(args[0])) {
		start = int(ToNumber(args[0]))
	}
	if len(args) > 1 && !IsUndefined(dift.Unwrap(args[1])) {
		end = int(ToNumber(args[1]))
	}
	norm := func(i int) int {
		if i < 0 {
			if negFromEnd {
				i += n
			} else {
				i = 0
			}
		}
		return min(max(i, 0), n)
	}
	start, end = norm(start), norm(end)
	if end < start {
		if negFromEnd {
			end = start
		} else {
			start, end = end, start
		}
	}
	return start, end
}
