// Package interp is a tree-walking interpreter for MiniJS — the "runtime
// platform" substrate of the reproduction. It stands in for Node.js: it
// executes original and instrumented application code identically, hosts
// the stand-in I/O modules (fs, net, http, mqtt, smtp, sqlite), and serves
// instrumented applications' tracker calls (`__t.<method>(...)`, see
// vm.TrackerOp) from the inlined DIF Tracker.
package interp

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"turnstile/internal/ast"
	"turnstile/internal/dift"
	"turnstile/internal/vm"
)

// Value is any MiniJS runtime value:
//
//	undefined       Undefined
//	null            Null
//	number          float64
//	string          string
//	boolean         bool
//	object          *Object
//	array           *Array
//	function        *Function (user) or *HostFunc (builtin)
//	tracked value   *dift.Box (transparent wrapper around a primitive)
type Value = any

// Undefined is the undefined value.
type Undefined struct{}

// Null is the null value.
type Null struct{}

var (
	undef Value = Undefined{}
	null  Value = Null{}
)

// Object is a MiniJS object. Property insertion order is preserved for
// deterministic iteration and printing.
type Object struct {
	dift.Labels
	props map[string]Value
	keys  []string
	// version counts every property write or delete; shape counts only
	// key-set changes (add/delete). The interpreter's inline caches use
	// them as invalidation guards (see ic.go). They are uint64: a
	// long-lived serve tenant could wrap a 32-bit counter in 2^32 writes
	// and re-validate a stale IC entry, so the counter must be wide enough
	// to never wrap within a process lifetime.
	version uint64
	shape   uint64
	Proto   *Object
	// Class names the constructor for diagnostics ("Object", "Error", ...).
	Class string
	// Listeners holds event callbacks registered via .on(event, cb) on
	// host I/O objects.
	Listeners map[string][]Value
	// Host carries module-internal state for host objects.
	Host any
}

// NewObject allocates an empty object.
func NewObject() *Object {
	return &Object{props: make(map[string]Value), Class: "Object"}
}

// Get returns the named property, consulting the prototype chain.
func (o *Object) Get(name string) (Value, bool) {
	for cur := o; cur != nil; cur = cur.Proto {
		if v, ok := cur.props[name]; ok {
			return v, true
		}
	}
	return undef, false
}

// GetOwn returns the named own property.
func (o *Object) GetOwn(name string) (Value, bool) {
	v, ok := o.props[name]
	return v, ok
}

// Set assigns an own property, preserving first-insertion order.
func (o *Object) Set(name string, v Value) {
	if _, exists := o.props[name]; !exists {
		o.keys = append(o.keys, name)
		o.shape++
	}
	o.version++
	o.props[name] = v
}

// Delete removes an own property.
func (o *Object) Delete(name string) {
	if _, ok := o.props[name]; !ok {
		return
	}
	o.version++
	o.shape++
	delete(o.props, name)
	for i, k := range o.keys {
		if k == name {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			break
		}
	}
}

// Keys returns own property names in insertion order.
func (o *Object) Keys() []string {
	out := make([]string, len(o.keys))
	copy(out, o.keys)
	return out
}

// Len returns the number of own properties.
func (o *Object) Len() int { return len(o.props) }

// Array is a MiniJS array.
type Array struct {
	dift.Labels
	Elems []Value
}

// NewArray allocates an array with the given elements.
func NewArray(elems ...Value) *Array {
	return &Array{Elems: elems}
}

// Function is a user-defined MiniJS function or class.
type Function struct {
	dift.Labels
	Name string
	Decl *ast.FuncLit
	Env  *Env
	This Value // bound receiver for methods extracted via member access

	// Code is the compiled bytecode chunk for Decl, attached at closure
	// creation when the VM is on (nil dispatches the tree-walker).
	Code *vm.Chunk

	// Class support.
	IsClass bool
	Methods map[string]*ast.FuncLit
	Statics map[string]*ast.FuncLit
	Super   *Function

	// props makes functions usable as objects (Foo.prototype = ...).
	props map[string]Value
}

// NewFunction wraps a function literal closing over env.
func NewFunction(name string, decl *ast.FuncLit, env *Env) *Function {
	return &Function{Name: name, Decl: decl, Env: env}
}

// Get returns a property of the function object (e.g. "prototype").
func (f *Function) Get(name string) (Value, bool) {
	if f.props == nil {
		return undef, false
	}
	v, ok := f.props[name]
	return v, ok
}

// Set assigns a property on the function object.
func (f *Function) Set(name string, v Value) {
	if f.props == nil {
		f.props = make(map[string]Value)
	}
	f.props[name] = v
}

// Prototype returns the function's prototype object, creating it on first
// use (supports the prototype-chain idiom the baseline analyzer handles).
func (f *Function) Prototype() *Object {
	if p, ok := f.Get("prototype"); ok {
		if po, isObj := p.(*Object); isObj {
			return po
		}
	}
	p := NewObject()
	f.Set("prototype", p)
	return p
}

// HostFunc is a builtin function implemented in Go. Like user functions it
// can carry properties (Promise.resolve, Date.now, ...).
type HostFunc struct {
	dift.Labels
	Name  string
	Fn    func(ip *Interp, this Value, args []Value) (Value, error)
	props map[string]Value
}

// Get returns a property of the host function object.
func (h *HostFunc) Get(name string) (Value, bool) {
	if h.props == nil {
		return undef, false
	}
	v, ok := h.props[name]
	return v, ok
}

// Set assigns a property on the host function object.
func (h *HostFunc) Set(name string, v Value) {
	if h.props == nil {
		h.props = make(map[string]Value)
	}
	h.props[name] = v
}

// NewHostFunc wraps a Go function as a MiniJS callable.
func NewHostFunc(name string, fn func(ip *Interp, this Value, args []Value) (Value, error)) *HostFunc {
	return &HostFunc{Name: name, Fn: fn}
}

// ---------------------------------------------------------------------------
// Conversions and predicates (ECMAScript-lite semantics)

// IsUndefined reports whether v is undefined.
func IsUndefined(v Value) bool { _, ok := v.(Undefined); return ok }

// IsNull reports whether v is null.
func IsNull(v Value) bool { _, ok := v.(Null); return ok }

// IsNullish reports undefined or null.
func IsNullish(v Value) bool { return IsUndefined(v) || IsNull(v) }

// Truthy implements JS boolean coercion.
func Truthy(v Value) bool {
	v = dift.Unwrap(v)
	switch x := v.(type) {
	case Undefined, Null:
		return false
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	default:
		return true
	}
}

// TypeOf implements the typeof operator.
func TypeOf(v Value) string {
	v = dift.Unwrap(v)
	switch v.(type) {
	case Undefined:
		return "undefined"
	case Null:
		return "object"
	case bool:
		return "boolean"
	case float64:
		return "number"
	case string:
		return "string"
	case *Function, *HostFunc:
		return "function"
	default:
		return "object"
	}
}

// ToNumber implements JS numeric coercion.
func ToNumber(v Value) float64 {
	v = dift.Unwrap(v)
	switch x := v.(type) {
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
		return 0
	case string:
		s := strings.TrimSpace(x)
		if s == "" {
			return 0
		}
		n, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return n
	case Null:
		return 0
	default:
		return math.NaN()
	}
}

// ToString implements JS string coercion (used by +, template literals,
// console.log).
func ToString(v Value) string {
	v = dift.Unwrap(v)
	switch x := v.(type) {
	case Undefined:
		return "undefined"
	case Null:
		return "null"
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		return formatNumber(x)
	case string:
		return x
	case *Array:
		parts := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			if IsNullish(dift.Unwrap(el)) {
				parts[i] = ""
			} else {
				parts[i] = ToString(el)
			}
		}
		return strings.Join(parts, ",")
	case *Object:
		return "[object " + x.Class + "]"
	case *Function:
		return "function " + x.Name + "() { ... }"
	case *HostFunc:
		return "function " + x.Name + "() { [native code] }"
	default:
		return fmt.Sprintf("%v", x)
	}
}

func formatNumber(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	a, b = dift.Unwrap(a), dift.Unwrap(b)
	switch x := a.(type) {
	case Undefined:
		return IsUndefined(b)
	case Null:
		return IsNull(b)
	case float64:
		y, ok := b.(float64)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	default:
		return a == b // reference identity
	}
}

// LooseEquals implements == with the common coercions.
func LooseEquals(a, b Value) bool {
	a, b = dift.Unwrap(a), dift.Unwrap(b)
	if IsNullish(a) && IsNullish(b) {
		return true
	}
	if IsNullish(a) || IsNullish(b) {
		return false
	}
	switch a.(type) {
	case float64, string, bool:
		switch b.(type) {
		case float64, string, bool:
			if sa, okA := a.(string); okA {
				if sb, okB := b.(string); okB {
					return sa == sb
				}
			}
			return ToNumber(a) == ToNumber(b)
		}
		return false
	}
	return a == b
}

// Inspect renders v for console.log: strings unquoted at top level,
// objects/arrays in literal-ish form.
func Inspect(v Value) string {
	return inspect(v, make(map[Value]bool), true)
}

func inspect(v Value, seen map[Value]bool, top bool) string {
	v = dift.Unwrap(v)
	switch x := v.(type) {
	case string:
		if top {
			return x
		}
		return "'" + x + "'"
	case *Array:
		if seen[x] {
			return "[Circular]"
		}
		seen[x] = true
		defer delete(seen, x)
		parts := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			parts[i] = inspect(el, seen, false)
		}
		return "[ " + strings.Join(parts, ", ") + " ]"
	case *Object:
		if seen[x] {
			return "[Circular]"
		}
		seen[x] = true
		defer delete(seen, x)
		keys := x.Keys()
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			pv, _ := x.GetOwn(k)
			parts = append(parts, k+": "+inspect(pv, seen, false))
		}
		return "{ " + strings.Join(parts, ", ") + " }"
	default:
		return ToString(v)
	}
}

// SortStrings is a tiny helper re-exported for host modules that need
// deterministic ordering.
func SortStrings(s []string) { sort.Strings(s) }
