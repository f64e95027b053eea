package interp

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"turnstile/internal/ast"
	"turnstile/internal/dift"
	"turnstile/internal/faults"
)

// promiseState is the Host payload of a Promise object.
type promiseState struct {
	resolved bool
	rejected bool
	value    Value
}

// ResolvePromise returns the settled value of a Promise, or v itself for
// non-promises. Per §4.5, `await foo` is treated as `foo`.
func (ip *Interp) ResolvePromise(v Value) Value {
	if o, ok := dift.Unwrap(v).(*Object); ok {
		if ps, isP := o.Host.(*promiseState); isP {
			return ps.value
		}
	}
	return v
}

// NewPromise builds a resolved/rejected promise object with then/catch/
// finally methods (synchronous settlement model, §4.5).
func (ip *Interp) NewPromise(value Value, rejected bool) *Object {
	p := NewObject()
	p.Class = "Promise"
	ps := &promiseState{resolved: !rejected, rejected: rejected, value: value}
	p.Host = ps
	p.Set("then", NewHostFunc("then", func(ip *Interp, this Value, args []Value) (Value, error) {
		if ps.rejected {
			if len(args) > 1 {
				ret, err := ip.CallFunction(args[1], undef, []Value{ps.value}, ast.Pos{})
				if err != nil {
					return nil, err
				}
				return ip.promisify(ret, false), nil
			}
			return p, nil
		}
		if len(args) > 0 {
			ret, err := ip.CallFunction(args[0], undef, []Value{ps.value}, ast.Pos{})
			if err != nil {
				if th, isThrow := err.(*Throw); isThrow {
					return ip.NewPromise(th.Val, true), nil
				}
				return nil, err
			}
			return ip.promisify(ret, false), nil
		}
		return p, nil
	}))
	p.Set("catch", NewHostFunc("catch", func(ip *Interp, this Value, args []Value) (Value, error) {
		if ps.rejected && len(args) > 0 {
			ret, err := ip.CallFunction(args[0], undef, []Value{ps.value}, ast.Pos{})
			if err != nil {
				return nil, err
			}
			return ip.promisify(ret, false), nil
		}
		return p, nil
	}))
	p.Set("finally", NewHostFunc("finally", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) > 0 {
			if _, err := ip.CallFunction(args[0], undef, nil, ast.Pos{}); err != nil {
				return nil, err
			}
		}
		return p, nil
	}))
	return p
}

// promisify flattens nested promises.
func (ip *Interp) promisify(v Value, rejected bool) *Object {
	if o, ok := dift.Unwrap(v).(*Object); ok {
		if _, isP := o.Host.(*promiseState); isP {
			return o
		}
	}
	return ip.NewPromise(v, rejected)
}

func (ip *Interp) installGlobals() {
	g := ip.Globals

	// console
	console := NewObject()
	logFn := NewHostFunc("log", func(ip *Interp, this Value, args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = Inspect(a)
		}
		ip.ConsoleOut = append(ip.ConsoleOut, strings.Join(parts, " "))
		return undef, nil
	})
	console.Set("log", logFn)
	console.Set("error", logFn)
	console.Set("warn", logFn)
	console.Set("info", logFn)
	g.Define("console", console, false)

	// JSON
	jsonObj := NewObject()
	jsonObj.Set("stringify", NewHostFunc("stringify", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return "undefined", nil
		}
		return jsonStringify(args[0], make(map[Value]bool)), nil
	}))
	jsonObj.Set("parse", NewHostFunc("parse", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return nil, &Throw{Val: ip.MakeError("SyntaxError", "JSON.parse: no input")}
		}
		v, rest, err := jsonParse(ToString(args[0]))
		if err != nil || strings.TrimSpace(rest) != "" {
			return nil, &Throw{Val: ip.MakeError("SyntaxError", "JSON.parse: invalid JSON")}
		}
		return v, nil
	}))
	g.Define("JSON", jsonObj, false)

	// Math
	mathObj := NewObject()
	unary := func(name string, fn func(float64) float64) {
		mathObj.Set(name, NewHostFunc(name, func(ip *Interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return math.NaN(), nil
			}
			return fn(ToNumber(args[0])), nil
		}))
	}
	unary("floor", math.Floor)
	unary("ceil", math.Ceil)
	unary("round", math.Round)
	unary("abs", math.Abs)
	unary("sqrt", math.Sqrt)
	unary("log", math.Log)
	unary("exp", math.Exp)
	unary("sin", math.Sin)
	unary("cos", math.Cos)
	unary("trunc", math.Trunc)
	mathObj.Set("pow", NewHostFunc("pow", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return math.NaN(), nil
		}
		return math.Pow(ToNumber(args[0]), ToNumber(args[1])), nil
	}))
	mathObj.Set("max", NewHostFunc("max", func(ip *Interp, this Value, args []Value) (Value, error) {
		out := math.Inf(-1)
		for _, a := range args {
			out = math.Max(out, ToNumber(a))
		}
		return out, nil
	}))
	mathObj.Set("min", NewHostFunc("min", func(ip *Interp, this Value, args []Value) (Value, error) {
		out := math.Inf(1)
		for _, a := range args {
			out = math.Min(out, ToNumber(a))
		}
		return out, nil
	}))
	// deterministic pseudo-random: xorshift seeded constant, reproducible runs
	var rngState uint64 = 0x9E3779B97F4A7C15
	mathObj.Set("random", NewHostFunc("random", func(ip *Interp, this Value, args []Value) (Value, error) {
		rngState ^= rngState << 13
		rngState ^= rngState >> 7
		rngState ^= rngState << 17
		return float64(rngState%1_000_000) / 1_000_000, nil
	}))
	mathObj.Set("PI", math.Pi)
	mathObj.Set("E", math.E)
	g.Define("Math", mathObj, false)

	// Object
	objectNS := NewObject()
	objectNS.Set("keys", NewHostFunc("keys", func(ip *Interp, this Value, args []Value) (Value, error) {
		arr := NewArray()
		if len(args) > 0 {
			if o, ok := dift.Unwrap(args[0]).(*Object); ok {
				for _, k := range o.Keys() {
					arr.Elems = append(arr.Elems, k)
				}
			}
		}
		return arr, nil
	}))
	objectNS.Set("values", NewHostFunc("values", func(ip *Interp, this Value, args []Value) (Value, error) {
		arr := NewArray()
		if len(args) > 0 {
			if o, ok := dift.Unwrap(args[0]).(*Object); ok {
				for _, k := range o.Keys() {
					v, _ := o.GetOwn(k)
					arr.Elems = append(arr.Elems, v)
				}
			}
		}
		return arr, nil
	}))
	objectNS.Set("entries", NewHostFunc("entries", func(ip *Interp, this Value, args []Value) (Value, error) {
		arr := NewArray()
		if len(args) > 0 {
			if o, ok := dift.Unwrap(args[0]).(*Object); ok {
				for _, k := range o.Keys() {
					v, _ := o.GetOwn(k)
					arr.Elems = append(arr.Elems, NewArray(k, v))
				}
			}
		}
		return arr, nil
	}))
	objectNS.Set("assign", NewHostFunc("assign", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return NewObject(), nil
		}
		dst, ok := dift.Unwrap(args[0]).(*Object)
		if !ok {
			return args[0], nil
		}
		for _, src := range args[1:] {
			if so, ok := dift.Unwrap(src).(*Object); ok {
				for _, k := range so.Keys() {
					v, _ := so.GetOwn(k)
					dst.Set(k, v)
				}
			}
		}
		return dst, nil
	}))
	objectNS.Set("freeze", NewHostFunc("freeze", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) > 0 {
			return args[0], nil
		}
		return undef, nil
	}))
	g.Define("Object", objectNS, false)

	// Array namespace
	arrayNS := NewObject()
	arrayNS.Set("isArray", NewHostFunc("isArray", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return false, nil
		}
		_, ok := dift.Unwrap(args[0]).(*Array)
		return ok, nil
	}))
	arrayNS.Set("from", NewHostFunc("from", func(ip *Interp, this Value, args []Value) (Value, error) {
		out := NewArray()
		if len(args) > 0 {
			switch src := dift.Unwrap(args[0]).(type) {
			case *Array:
				out.Elems = append(out.Elems, src.Elems...)
			case string:
				for _, r := range src {
					out.Elems = append(out.Elems, string(r))
				}
			}
		}
		return out, nil
	}))
	g.Define("Array", arrayNS, false)

	// Promise namespace (constructor + resolve/reject/all)
	promiseCtor := NewHostFunc("Promise", func(ip *Interp, this Value, args []Value) (Value, error) {
		// new Promise((resolve, reject) => ...): executor runs synchronously
		if len(args) == 0 {
			return ip.NewPromise(undef, false), nil
		}
		var settled Value = undef
		rejected := false
		resolve := NewHostFunc("resolve", func(ip *Interp, this Value, args []Value) (Value, error) {
			if len(args) > 0 {
				settled = ip.ResolvePromise(args[0])
			}
			return undef, nil
		})
		reject := NewHostFunc("reject", func(ip *Interp, this Value, args []Value) (Value, error) {
			rejected = true
			if len(args) > 0 {
				settled = args[0]
			}
			return undef, nil
		})
		if _, err := ip.CallFunction(args[0], undef, []Value{resolve, reject}, ast.Pos{}); err != nil {
			if th, ok := err.(*Throw); ok {
				return ip.NewPromise(th.Val, true), nil
			}
			return nil, err
		}
		return ip.NewPromise(settled, rejected), nil
	})
	promiseCtor.Set("resolve", NewHostFunc("resolve", func(ip *Interp, this Value, args []Value) (Value, error) {
		var v Value = undef
		if len(args) > 0 {
			v = args[0]
		}
		return ip.promisify(v, false), nil
	}))
	promiseCtor.Set("reject", NewHostFunc("reject", func(ip *Interp, this Value, args []Value) (Value, error) {
		var v Value = undef
		if len(args) > 0 {
			v = args[0]
		}
		return ip.NewPromise(v, true), nil
	}))
	promiseCtor.Set("all", NewHostFunc("all", func(ip *Interp, this Value, args []Value) (Value, error) {
		out := NewArray()
		if len(args) > 0 {
			if arr, ok := dift.Unwrap(args[0]).(*Array); ok {
				for _, el := range arr.Elems {
					out.Elems = append(out.Elems, ip.ResolvePromise(el))
				}
			}
		}
		return ip.NewPromise(out, false), nil
	}))
	g.Define("Promise", promiseCtor, false)

	// Error constructors
	for _, name := range []string{"Error", "TypeError", "RangeError", "SyntaxError"} {
		cls := name
		g.Define(name, NewHostFunc(name, func(ip *Interp, this Value, args []Value) (Value, error) {
			msg := ""
			if len(args) > 0 {
				msg = ToString(args[0])
			}
			return ip.MakeError(cls, msg), nil
		}), false)
	}

	// primitive conversion functions
	g.Define("String", NewHostFunc("String", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return "", nil
		}
		return ToString(args[0]), nil
	}), false)
	g.Define("Number", NewHostFunc("Number", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return 0.0, nil
		}
		return ToNumber(args[0]), nil
	}), false)
	g.Define("Boolean", NewHostFunc("Boolean", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return false, nil
		}
		return Truthy(args[0]), nil
	}), false)
	g.Define("parseInt", NewHostFunc("parseInt", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return math.NaN(), nil
		}
		s := strings.TrimSpace(ToString(args[0]))
		base := 10
		if len(args) > 1 {
			if b := int(ToNumber(args[1])); b >= 2 && b <= 36 {
				base = b
			}
		}
		end := 0
		neg := false
		if end < len(s) && (s[end] == '-' || s[end] == '+') {
			neg = s[end] == '-'
			end++
		}
		start := end
		for end < len(s) && isBaseDigit(s[end], base) {
			end++
		}
		if end == start {
			return math.NaN(), nil
		}
		n, err := strconv.ParseInt(s[start:end], base, 64)
		if err != nil {
			return math.NaN(), nil
		}
		if neg {
			n = -n
		}
		return float64(n), nil
	}), false)
	g.Define("parseFloat", NewHostFunc("parseFloat", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return math.NaN(), nil
		}
		s := strings.TrimSpace(ToString(args[0]))
		end := 0
		for end < len(s) && (s[end] == '-' || s[end] == '+' || s[end] == '.' || s[end] == 'e' || s[end] == 'E' || (s[end] >= '0' && s[end] <= '9')) {
			end++
		}
		for end > 0 {
			if n, err := strconv.ParseFloat(s[:end], 64); err == nil {
				return n, nil
			}
			end--
		}
		return math.NaN(), nil
	}), false)
	g.Define("isNaN", NewHostFunc("isNaN", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return true, nil
		}
		return math.IsNaN(ToNumber(args[0])), nil
	}), false)
	g.Define("NaN", math.NaN(), false)
	g.Define("Infinity", math.Inf(1), false)
	g.Define("globalThis", NewObject(), false)

	// Date: deterministic — now() is a monotonic virtual-millisecond counter
	dateNS := NewHostFunc("Date", func(ip *Interp, this Value, args []Value) (Value, error) {
		o := NewObject()
		o.Class = "Date"
		ip.now++
		t := ip.now
		o.Set("getTime", NewHostFunc("getTime", func(ip *Interp, this Value, args []Value) (Value, error) {
			return t, nil
		}))
		o.Set("toISOString", NewHostFunc("toISOString", func(ip *Interp, this Value, args []Value) (Value, error) {
			return fmt.Sprintf("1970-01-01T00:00:%06.3fZ", t/1000), nil
		}))
		return o, nil
	})
	dateNS.Set("now", NewHostFunc("now", func(ip *Interp, this Value, args []Value) (Value, error) {
		ip.now++
		return ip.now, nil
	}))
	g.Define("Date", dateNS, false)

	// timers: synchronous model — callbacks run immediately after advancing
	// the virtual clock by the requested delay (the corpus apps use
	// setTimeout(fn, 0) style deferrals only, so eager execution preserves
	// their semantics while keeping virtual time honest)
	g.Define("setTimeout", NewHostFunc("setTimeout", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) > 1 {
			if ms := ToNumber(args[1]); ms > 0 {
				ip.Clock.Advance(int64(ms))
				// probe the guard deadline at the advance site: a timer
				// chain moves virtual time without burning much fuel
				if err := ip.Guard.CheckDeadline("setTimeout"); err != nil {
					return nil, err
				}
			}
		}
		if len(args) > 0 {
			if _, err := ip.CallFunction(args[0], undef, nil, ast.Pos{}); err != nil {
				return nil, err
			}
		}
		return 0.0, nil
	}), false)
	// retry(fn, attempts?, baseDelay?) — exponential backoff on the virtual
	// clock. Retries only JS exceptions (a failing host op surfaced as a
	// throw); interpreter-level errors such as step-budget exhaustion
	// propagate immediately. Returns fn's value from the first success;
	// rethrows the last exception once attempts are exhausted.
	g.Define("retry", NewHostFunc("retry", func(ip *Interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return undef, nil
		}
		attempts := 3
		if len(args) > 1 {
			if n := int(ToNumber(args[1])); n > 0 {
				attempts = n
			}
		}
		base := int64(1)
		if len(args) > 2 {
			if b := int64(ToNumber(args[2])); b > 0 {
				base = b
			}
		}
		var result Value = undef
		var fatal error
		err := faults.Retry(ip.Clock, attempts, base, func() error {
			v, callErr := ip.CallFunction(args[0], undef, nil, ast.Pos{})
			if callErr != nil {
				if _, isThrow := callErr.(*Throw); isThrow {
					return callErr
				}
				fatal = callErr
				return nil
			}
			result = v
			return nil
		})
		if fatal != nil {
			return nil, fatal
		}
		if err != nil {
			return nil, err
		}
		return result, nil
	}), false)
	g.Define("setInterval", NewHostFunc("setInterval", func(ip *Interp, this Value, args []Value) (Value, error) {
		// intervals are driven externally by the workload pump; register
		// the callback so tests can fire it
		if len(args) > 0 {
			ip.IO.Intervals = append(ip.IO.Intervals, args[0])
		}
		return float64(len(ip.IO.Intervals)), nil
	}), false)
	g.Define("clearInterval", NewHostFunc("clearInterval", func(ip *Interp, this Value, args []Value) (Value, error) {
		return undef, nil
	}), false)

	ip.installHostModules()
}

func isBaseDigit(c byte, base int) bool {
	var d int
	switch {
	case c >= '0' && c <= '9':
		d = int(c - '0')
	case c >= 'a' && c <= 'z':
		d = int(c-'a') + 10
	case c >= 'A' && c <= 'Z':
		d = int(c-'A') + 10
	default:
		return false
	}
	return d < base
}

// ---------------------------------------------------------------------------
// JSON

func jsonStringify(v Value, seen map[Value]bool) string {
	v = dift.Unwrap(v)
	switch x := v.(type) {
	case Undefined:
		return "null"
	case Null:
		return "null"
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return "null"
		}
		return formatNumber(x)
	case string:
		return strconv.Quote(x)
	case *Array:
		if seen[x] {
			return "null"
		}
		seen[x] = true
		defer delete(seen, x)
		parts := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			parts[i] = jsonStringify(el, seen)
		}
		return "[" + strings.Join(parts, ",") + "]"
	case *Object:
		if seen[x] {
			return "null"
		}
		seen[x] = true
		defer delete(seen, x)
		keys := x.Keys()
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			pv, _ := x.GetOwn(k)
			switch dift.Unwrap(pv).(type) {
			case *Function, *HostFunc, Undefined:
				continue
			}
			parts = append(parts, strconv.Quote(k)+":"+jsonStringify(pv, seen))
		}
		return "{" + strings.Join(parts, ",") + "}"
	default:
		return "null"
	}
}

func jsonParse(s string) (Value, string, error) {
	s = strings.TrimLeft(s, " \t\n\r")
	if s == "" {
		return nil, s, fmt.Errorf("unexpected end of JSON")
	}
	switch {
	case strings.HasPrefix(s, "null"):
		return null, s[4:], nil
	case strings.HasPrefix(s, "true"):
		return true, s[4:], nil
	case strings.HasPrefix(s, "false"):
		return false, s[5:], nil
	case s[0] == '"':
		unq, rest, err := jsonParseString(s)
		return unq, rest, err
	case s[0] == '[':
		s = s[1:]
		arr := NewArray()
		s = strings.TrimLeft(s, " \t\n\r")
		if strings.HasPrefix(s, "]") {
			return arr, s[1:], nil
		}
		for {
			v, rest, err := jsonParse(s)
			if err != nil {
				return nil, rest, err
			}
			arr.Elems = append(arr.Elems, v)
			s = strings.TrimLeft(rest, " \t\n\r")
			if strings.HasPrefix(s, ",") {
				s = s[1:]
				continue
			}
			if strings.HasPrefix(s, "]") {
				return arr, s[1:], nil
			}
			return nil, s, fmt.Errorf("bad array")
		}
	case s[0] == '{':
		s = s[1:]
		obj := NewObject()
		s = strings.TrimLeft(s, " \t\n\r")
		if strings.HasPrefix(s, "}") {
			return obj, s[1:], nil
		}
		for {
			s = strings.TrimLeft(s, " \t\n\r")
			key, rest, err := jsonParseString(s)
			if err != nil {
				return nil, rest, err
			}
			s = strings.TrimLeft(rest, " \t\n\r")
			if !strings.HasPrefix(s, ":") {
				return nil, s, fmt.Errorf("bad object")
			}
			v, rest2, err := jsonParse(s[1:])
			if err != nil {
				return nil, rest2, err
			}
			obj.Set(key, v)
			s = strings.TrimLeft(rest2, " \t\n\r")
			if strings.HasPrefix(s, ",") {
				s = s[1:]
				continue
			}
			if strings.HasPrefix(s, "}") {
				return obj, s[1:], nil
			}
			return nil, s, fmt.Errorf("bad object")
		}
	default:
		end := 0
		for end < len(s) && (s[end] == '-' || s[end] == '+' || s[end] == '.' ||
			s[end] == 'e' || s[end] == 'E' || (s[end] >= '0' && s[end] <= '9')) {
			end++
		}
		if end == 0 {
			return nil, s, fmt.Errorf("unexpected character %q", s[0])
		}
		n, err := strconv.ParseFloat(s[:end], 64)
		if err != nil {
			return nil, s, err
		}
		return n, s[end:], nil
	}
}

func jsonParseString(s string) (string, string, error) {
	if s == "" || s[0] != '"' {
		return "", s, fmt.Errorf("expected string")
	}
	var b strings.Builder
	i := 1
	for i < len(s) {
		c := s[i]
		switch c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", s, fmt.Errorf("bad escape")
			}
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case 'u':
				if i+4 < len(s) {
					if code, err := strconv.ParseUint(s[i+1:i+5], 16, 32); err == nil {
						b.WriteRune(rune(code))
					}
					i += 4
				}
			default:
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(c)
		}
		i++
	}
	return "", s, fmt.Errorf("unterminated string")
}
