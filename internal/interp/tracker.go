package interp

import (
	"errors"
	"fmt"

	"turnstile/internal/ast"
	"turnstile/internal/dift"
	"turnstile/internal/guard"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/resolve"
	"turnstile/internal/vm"
)

// Adapter implements dift.ValueAdapter over MiniJS values.
type Adapter struct{}

// Property implements dift.ValueAdapter.
func (Adapter) Property(v any, name string) (any, bool) {
	if o, ok := dift.Unwrap(v).(*Object); ok {
		return o.Get(name)
	}
	return nil, false
}

// SetProperty implements dift.ValueAdapter.
func (Adapter) SetProperty(v any, name string, val any) bool {
	if o, ok := dift.Unwrap(v).(*Object); ok {
		o.Set(name, val)
		return true
	}
	return false
}

// Elements implements dift.ValueAdapter.
func (Adapter) Elements(v any) ([]any, bool) {
	if a, ok := dift.Unwrap(v).(*Array); ok {
		return a.Elems, true
	}
	return nil, false
}

// SetElement implements dift.ValueAdapter.
func (Adapter) SetElement(v any, i int, val any) bool {
	if a, ok := dift.Unwrap(v).(*Array); ok && i < len(a.Elems) {
		a.Elems[i] = val
		return true
	}
	return false
}

// PropertyNames implements dift.PropertyLister: insertion-ordered property
// names, so CNF-mode label collection over object graphs is deterministic.
func (Adapter) PropertyNames(v any) ([]string, bool) {
	if o, ok := dift.Unwrap(v).(*Object); ok {
		return o.Keys(), true
	}
	return nil, false
}

// IsReference implements dift.ValueAdapter.
func (Adapter) IsReference(v any) bool {
	switch v.(type) {
	case *Object, *Array, *Function, *HostFunc, *dift.Box:
		return true
	}
	return false
}

// InstallTracker creates the inlined DIF Tracker for a policy and installs
// its τ methods (the τ of Fig. 2b) as the targets of the application's
// tracker calls (vm.TrackerOp). τ is not a value: no binding of the
// program's, `__t` included, holds it, so application code reaches it
// only through those calls. It returns the tracker for host-side
// inspection.
func (ip *Interp) InstallTracker(pol *policy.Policy) *dift.Tracker {
	tr := dift.NewTracker(pol, Adapter{})
	ip.Tracker = tr
	// telemetry enabled before the tracker was installed: wire it through
	if ip.Metrics != nil || ip.Tracer != nil {
		tr.EnableTelemetry(ip.Metrics, ip.Tracer)
	}
	// tau installs one τ method under its op code. The VM hands these
	// functions a pooled argument window that is recycled when they
	// return. That is sound because none of them keeps the slice: they
	// pass on its elements, or an argument array's own Elems, never args
	// itself.
	tau := func(name string, fn func(ip *Interp, this Value, args []Value) (Value, error)) *HostFunc {
		hf := NewHostFunc(name, fn)
		ip.tauFns[vm.TauOpOf(name)] = hf
		return hf
	}

	// label(target, labellerName): evaluate and attach the value-dependent
	// privacy label (Table 1).
	tau("label", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return argOr(args, 0), nil
		}
		l, err := pol.Labeller(ToString(args[1]))
		if err != nil {
			return nil, &Throw{Val: ip.MakeError("Error", err.Error())}
		}
		out, err := tr.Label(args[0], l)
		if err != nil {
			// a guard budget trip inside the label function is a resource
			// abort, not an application exception: it must stay typed and
			// uncatchable, or a try/catch could swallow the enforcement
			var be *guard.BudgetError
			if errors.As(err, &be) {
				return nil, err
			}
			return nil, &Throw{Val: ip.MakeError("Error", err.Error())}
		}
		return out, nil
	})

	// binaryOp(op, left, right): perform the operation and attach the
	// compound label (Fig. 5 binaryOp rule).
	tau("binaryOp", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 3 {
			return undef, nil
		}
		res, err := ip.BinaryOp(ToString(args[0]), args[1], args[2], ast.Pos{})
		if err != nil {
			return nil, err
		}
		return tr.Derive(res, args[1], args[2]), nil
	})

	// derive(result, ...sources): label a constructed value (object/array/
	// template literals on privacy-sensitive paths).
	tau("derive", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return undef, nil
		}
		return tr.Derive(args[0], args[1:]...), nil
	})

	// check(data, receiver): verify the flow is allowed.
	tau("check", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return argOr(args, 0), nil
		}
		site := "check"
		if len(args) > 2 {
			site = ToString(args[2])
		}
		if err := tr.Check(args[0], args[1], site); err != nil {
			return nil, &Throw{Val: ip.MakeError("PrivacyViolation", err.Error())}
		}
		return args[0], nil
	})

	// invoke(target, funcName, argsArray): flow-check the arguments against
	// the (possibly dynamically labelled) receiver, invoke, and label the
	// return value with the compound label of the arguments.
	tau("invoke", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 3 {
			return undef, nil
		}
		target := args[0]
		fname := ToString(args[1])
		callArgs, ok := dift.Unwrap(args[2]).(*Array)
		if !ok {
			return nil, &Throw{Val: ip.MakeError("TypeError", "__t.invoke: args must be an array")}
		}
		site := "invoke:" + fname
		if len(args) > 3 {
			site = ToString(args[3])
		}
		// receiver labels: the function value's own labels plus the labels
		// and dynamic labellers of the object it is read from
		fnVal, err := ip.GetMember(target, fname, ast.Pos{})
		if err != nil {
			return nil, err
		}
		if err := tr.InvokeCheckTarget(fnVal, target, callArgs.Elems, site); err != nil {
			return nil, &Throw{Val: ip.MakeError("PrivacyViolation", err.Error())}
		}
		ret, err := ip.CallMethod(target, fname, callArgs.Elems, ast.Pos{})
		if err != nil {
			return nil, err
		}
		// methods that return their receiver for chaining (db.run, client
		// .publish) yield the receiver itself, not a derived value; labelling
		// it would conflate the sink's clearance with its contents. Only
		// references qualify: on value types == means equality, not
		// identity, and e.g. trim() on an already-trimmed secret returns an
		// equal string whose label must still derive from the receiver
		if retU := dift.Unwrap(ret); retU == dift.Unwrap(target) && tr.Adapter.IsReference(retU) {
			return ret, nil
		}
		// the return value derives from the arguments AND the receiver
		// (frame.indexOf, frame.split, ... extract the receiver's data)
		srcs := make([]Value, 0, len(callArgs.Elems)+1)
		return tr.DeriveInvoke(ret, append(append(srcs, callArgs.Elems...), target)), nil
	})

	// call(fn, argsArray): like invoke for bare function calls.
	tau("call", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return undef, nil
		}
		callArgs, ok := dift.Unwrap(args[1]).(*Array)
		if !ok {
			return nil, &Throw{Val: ip.MakeError("TypeError", "__t.call: args must be an array")}
		}
		site := "call"
		if len(args) > 2 {
			site = ToString(args[2])
		}
		if err := tr.InvokeCheck(args[0], callArgs.Elems, site); err != nil {
			return nil, &Throw{Val: ip.MakeError("PrivacyViolation", err.Error())}
		}
		ret, err := ip.CallFunction(args[0], undef, callArgs.Elems, ast.Pos{})
		if err != nil {
			return nil, err
		}
		// declassify/endorse manage labels themselves; deriving their return
		// from the arguments would re-attach exactly the labels a sanctioned
		// declassification just discharged
		if hf, ok := dift.Unwrap(args[0]).(*HostFunc); ok && (hf.Name == "declassify" || hf.Name == "endorse") {
			return ret, nil
		}
		return tr.DeriveInvoke(ret, callArgs.Elems), nil
	})

	// member(obj, name): read a property through the tracker — the Proxy
	// interception of §4.4. Exhaustive instrumentation routes every
	// property access through this trap; the result inherits the
	// container's labels.
	tau("member", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return undef, nil
		}
		v, err := ip.GetMember(args[0], ToString(args[1]), ast.Pos{})
		if err != nil {
			return nil, err
		}
		return tr.Derive(v, args[0]), nil
	})

	// track(v): wrap a value for tracking without labels (exhaustive mode).
	tau("track", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return undef, nil
		}
		return tr.Track(args[0]), nil
	})

	// implicit-flow extension (§8): pc-scope management injected by the
	// instrumentor's ImplicitFlows mode.
	tau("pushScope", func(ip *Interp, this Value, args []Value) (Value, error) {
		tr.PushScope()
		return undef, nil
	})
	tau("pc", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return undef, nil
		}
		tr.PCCondition(args[0])
		return args[0], nil
	})
	tau("popScope", func(ip *Interp, this Value, args []Value) (Value, error) {
		tr.PopScope()
		return undef, nil
	})
	tau("assign", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return undef, nil
		}
		return tr.Assign(args[0]), nil
	})

	// unwrap(v): strip tracking for explicit declassification points.
	tau("unwrap", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return undef, nil
		}
		return tr.UnwrapDeep(args[0]), nil
	})

	// declassify(v, name) / endorse(v, name): the CNF extension's sanctioned
	// downgrade and integrity-upgrade points (declass.go). Exposed both as τ
	// methods and as plain globals so application code can call them like
	// ordinary library functions; a refusal surfaces as PrivacyViolation in
	// enforcement mode and is recorded silently in audit mode.
	declassFn := tau("declassify", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return argOr(args, 0), nil
		}
		out, err := tr.Declassify(args[0], ToString(args[1]))
		if err != nil {
			return nil, &Throw{Val: ip.MakeError("PrivacyViolation", err.Error())}
		}
		return out, nil
	})
	endorseFn := tau("endorse", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return argOr(args, 0), nil
		}
		out, err := tr.Endorse(args[0], ToString(args[1]))
		if err != nil {
			return nil, &Throw{Val: ip.MakeError("PrivacyViolation", err.Error())}
		}
		return out, nil
	})
	ip.Globals.Define("declassify", declassFn, false)
	ip.Globals.Define("endorse", endorseFn, false)
	return tr
}

func argOr(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return undef
}

// CompileLabelFunc compiles a MiniJS function source (typically an arrow
// function, as written in the IFC policy documents of Figs. 4 and 7) into a
// policy.LabelFunc executed on this interpreter. The function may return a
// string label or an array of string labels.
func (ip *Interp) CompileLabelFunc(source string) (policy.LabelFunc, error) {
	prog, err := parser.Parse("<labeller>", "const __lf = ("+source+");")
	if err != nil {
		return nil, fmt.Errorf("label function %q: %w", source, err)
	}
	if !ip.NoResolve {
		resolve.Resolve(prog)
		ip.ensureICs(prog.MaxID)
	}
	env := NewEnv(ip.Globals)
	if err := func() error {
		c, _, err := ip.execStmts(prog.Body, env)
		_ = c
		return err
	}(); err != nil {
		return nil, fmt.Errorf("label function %q: %w", source, err)
	}
	fnVal, ok := env.Lookup("__lf")
	if !ok {
		return nil, fmt.Errorf("label function %q did not evaluate", source)
	}
	return func(args ...any) (policy.LabelSet, error) {
		vals := make([]Value, len(args))
		for i, a := range args {
			vals[i] = toValue(a)
		}
		out, err := ip.CallFunction(fnVal, undef, vals, ast.Pos{})
		if err != nil {
			return nil, err
		}
		return valueToLabels(out)
	}, nil
}

// toValue converts a Go value from the tracker back into a MiniJS value.
// Tracker arguments are already MiniJS values except for []any argument
// lists passed by $invoke labellers.
func toValue(a any) Value {
	switch x := a.(type) {
	case nil:
		return null
	case []any:
		arr := NewArray()
		arr.Elems = append(arr.Elems, x...)
		return arr
	default:
		return x
	}
}

// valueToLabels converts a label-function result into a LabelSet.
func valueToLabels(v Value) (policy.LabelSet, error) {
	switch x := dift.Unwrap(v).(type) {
	case Undefined, Null:
		return nil, nil
	case string:
		if x == "" {
			return nil, nil
		}
		// NormalizeClause canonicalizes '|'-clause labels and is a no-op
		// passthrough for flat ones.
		return policy.NewLabelSet(policy.NormalizeClause(policy.Label(x))), nil
	case *Array:
		out := policy.NewLabelSet()
		for _, el := range x.Elems {
			s := ToString(el)
			if s != "" {
				out[policy.NormalizeClause(policy.Label(s))] = struct{}{}
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("label function returned %s; want string or array of strings", TypeOf(v))
}
