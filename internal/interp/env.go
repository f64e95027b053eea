package interp

import (
	"errors"
	"fmt"

	"turnstile/internal/ast"
)

// ErrNotDefined reports assignment to an undeclared name; sloppy-mode code
// handles it by creating an implicit global.
var ErrNotDefined = errors.New("not defined")

// unboundSlot marks a slot whose declaration has not executed yet. It is a
// dedicated sentinel rather than Go nil because host functions can return
// nil and that nil must remain a real, lookupable binding.
type unboundSlot struct{}

// Env is one lexical scope in the environment chain.
//
// A scope-resolved environment stores slot-declared names in a flat value
// array indexed by the resolver's slot assignment; every other binding
// (implicit globals, host injection, names the resolver left dynamic)
// lives in the vars map. An environment with no ScopeInfo is fully
// map-based and behaves exactly like the pre-resolver implementation.
type Env struct {
	parent     *Env
	scope      *ast.ScopeInfo // static slot layout; nil → map-only scope
	slots      []Value
	slotConsts []bool // lazy; nil until a const slot is defined
	vars       map[string]Value
	consts     map[string]bool
}

// NewEnv creates a map-based scope nested in parent (nil for the global
// scope).
func NewEnv(parent *Env) *Env {
	return &Env{parent: parent}
}

// NewScopeEnv creates a scope with the resolver's slot layout. All slots
// start unbound: a lookup or assignment reaching an unbound slot behaves
// as if the scope did not declare the name, matching the map path where
// the binding only exists once its Define has executed.
func NewScopeEnv(parent *Env, scope *ast.ScopeInfo) *Env {
	if scope == nil {
		return &Env{parent: parent}
	}
	e := &Env{parent: parent, scope: scope}
	if n := scope.NumSlots(); n > 0 {
		e.slots = make([]Value, n)
		for i := range e.slots {
			e.slots[i] = unboundSlot{}
		}
	}
	return e
}

// Define declares a variable in this scope. The interpreter defines into
// a non-global scope through Interp.defineMap, which keeps its
// dynamic-global cache valid.
func (e *Env) Define(name string, v Value, isConst bool) {
	if e.scope != nil {
		if i, ok := e.scope.Slot(name); ok {
			e.defineSlot(i, v, isConst)
			return
		}
	}
	if e.vars == nil {
		e.vars = make(map[string]Value)
	}
	e.vars[name] = v
	if isConst {
		if e.consts == nil {
			e.consts = make(map[string]bool)
		}
		e.consts[name] = true
	}
}

func (e *Env) defineSlot(i int, v Value, isConst bool) {
	e.slots[i] = v
	if isConst {
		if e.slotConsts == nil {
			e.slotConsts = make([]bool, len(e.slots))
		}
		e.slotConsts[i] = true
	}
}

// DefineSlot declares directly into slot i of this scope, bypassing the
// name lookup. It returns false when the environment has no such slot, in
// which case the caller falls back to Define.
func (e *Env) DefineSlot(i int, v Value, isConst bool) bool {
	if i < 0 || i >= len(e.slots) {
		return false
	}
	e.defineSlot(i, v, isConst)
	return true
}

// lookupOwner resolves a name exactly like Lookup and additionally
// reports the environment whose vars map provided the binding (nil for
// slot hits), so the VM can cache dynamic-global resolutions.
func (e *Env) lookupOwner(name string) (Value, *Env, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if cur.scope != nil {
			if i, ok := cur.scope.Slot(name); ok {
				v := cur.slots[i]
				if _, isUnbound := v.(unboundSlot); !isUnbound {
					return v, nil, true
				}
				continue // declared here but not yet bound: keep walking
			}
		}
		if v, ok := cur.vars[name]; ok {
			return v, cur, true
		}
	}
	return nil, nil, false
}

// Lookup resolves a name through the scope chain.
func (e *Env) Lookup(name string) (Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if cur.scope != nil {
			if i, ok := cur.scope.Slot(name); ok {
				v := cur.slots[i]
				if _, isUnbound := v.(unboundSlot); !isUnbound {
					return v, true
				}
				continue // declared here but not yet bound: keep walking
			}
		}
		if v, ok := cur.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// Assign updates an existing binding; it fails for undeclared names and
// const bindings.
func (e *Env) Assign(name string, v Value) error {
	for cur := e; cur != nil; cur = cur.parent {
		if cur.scope != nil {
			if i, ok := cur.scope.Slot(name); ok {
				if _, isUnbound := cur.slots[i].(unboundSlot); !isUnbound {
					if cur.slotConsts != nil && cur.slotConsts[i] {
						return fmt.Errorf("assignment to constant variable %q", name)
					}
					cur.slots[i] = v
					return nil
				}
				continue
			}
		}
		if _, ok := cur.vars[name]; ok {
			if cur.consts[name] {
				return fmt.Errorf("assignment to constant variable %q", name)
			}
			cur.vars[name] = v
			return nil
		}
	}
	return fmt.Errorf("%q is %w", name, ErrNotDefined)
}

// SlotRead reads the binding at a resolved (depth, slot) coordinate. It
// returns false — sending the caller to the dynamic Lookup walk — when the
// coordinate does not land on a bound slot (environment chain shorter than
// expected, scope created without a layout, or declaration not yet
// executed).
func (e *Env) SlotRead(depth, slot int) (Value, bool) {
	cur := e
	for d := 0; d < depth && cur != nil; d++ {
		cur = cur.parent
	}
	if cur == nil || slot < 0 || slot >= len(cur.slots) {
		return nil, false
	}
	v := cur.slots[slot]
	if _, isUnbound := v.(unboundSlot); isUnbound {
		return nil, false
	}
	return v, true
}

// SlotAssign writes through a resolved coordinate. done reports whether
// the write was handled here; (false, nil) sends the caller to the
// dynamic Assign walk. A const slot yields the same error Assign would.
func (e *Env) SlotAssign(depth, slot int, v Value) (bool, error) {
	cur := e
	for d := 0; d < depth && cur != nil; d++ {
		cur = cur.parent
	}
	if cur == nil || slot < 0 || slot >= len(cur.slots) {
		return false, nil
	}
	if _, isUnbound := cur.slots[slot].(unboundSlot); isUnbound {
		return false, nil
	}
	if cur.slotConsts != nil && cur.slotConsts[slot] {
		return true, fmt.Errorf("assignment to constant variable %q", cur.scope.Names[slot])
	}
	cur.slots[slot] = v
	return true, nil
}

// IterCopy clones the scope's bindings into a fresh environment with the
// same parent and layout. Loops with let/const headers use it to give
// each iteration its own binding, so closures created in the body capture
// that iteration's value.
func (e *Env) IterCopy() *Env {
	ne := &Env{parent: e.parent, scope: e.scope}
	if e.slots != nil {
		ne.slots = make([]Value, len(e.slots))
		copy(ne.slots, e.slots)
	}
	if e.slotConsts != nil {
		ne.slotConsts = make([]bool, len(e.slotConsts))
		copy(ne.slotConsts, e.slotConsts)
	}
	if e.vars != nil {
		ne.vars = make(map[string]Value, len(e.vars))
		for k, v := range e.vars {
			ne.vars[k] = v
		}
	}
	if e.consts != nil {
		ne.consts = make(map[string]bool, len(e.consts))
		for k, v := range e.consts {
			ne.consts[k] = v
		}
	}
	return ne
}

// Global returns the outermost scope.
func (e *Env) Global() *Env {
	cur := e
	for cur.parent != nil {
		cur = cur.parent
	}
	return cur
}
