// Package guard is Turnstile's resource-governance and failure-containment
// layer. The framework's security argument assumes the analyzer, runtime
// and tracker survive whatever the subject program does; guard makes that
// assumption hold: cooperative budgets turn runaway programs (unbounded
// loops, deep recursion, allocation blow-ups, timer storms) into typed
// BudgetErrors, and panic containment at every pipeline stage boundary
// turns internal failures into typed PipelineErrors, so one adversarial
// application can never hang or kill a harness worker pool.
//
// Design constraints (see DESIGN.md, "Failure domains and fail-closed
// semantics"):
//
//   - Guards-off must be free and transparent. Every charge site guards on
//     a nilable *Guard, and all Guard methods are safe on a nil receiver,
//     so the unguarded hot path pays one predictable branch and behaves
//     byte-identically to the pre-guard code.
//
//   - Trips are sticky and deterministic. Budgets count operations — steps,
//     call frames, allocation units, virtual-clock ticks — never wall time,
//     so the same program trips the same budget at the same operation on
//     every run, at any worker count, and under any fault schedule. Once a
//     guard trips, every subsequent charge returns the same *BudgetError.
//
//   - Zero repository dependencies except telemetry (itself leaf), so the
//     lexer, parser, printer, interpreter, tracker and harness can all use
//     it without import cycles.
package guard

import (
	"fmt"

	"turnstile/internal/telemetry"
)

// Kind names the budget a BudgetError exhausted.
type Kind string

const (
	// KindFuel is the cooperative step budget (evaluation steps).
	KindFuel Kind = "fuel"
	// KindDepth is the call-stack depth cap.
	KindDepth Kind = "depth"
	// KindAlloc is the allocation-unit budget.
	KindAlloc Kind = "alloc"
	// KindDeadline is the virtual-clock deadline.
	KindDeadline Kind = "deadline"
)

// BudgetError reports a tripped resource budget. It is the typed
// alternative to a hang (fuel, deadline), a process-killing Go stack
// overflow (depth) or an OOM (alloc).
type BudgetError struct {
	Kind  Kind
	Limit int64 // the configured budget
	Used  int64 // the charge that tripped it
	Site  string
}

func (e *BudgetError) Error() string {
	if e.Site != "" {
		return fmt.Sprintf("guard: %s budget exceeded at %s (%d > limit %d)", e.Kind, e.Site, e.Used, e.Limit)
	}
	return fmt.Sprintf("guard: %s budget exceeded (%d > limit %d)", e.Kind, e.Used, e.Limit)
}

// PipelineError is a failure contained at a pipeline stage boundary: a
// recovered panic, or a stage-local resource trip (e.g. parser recursion
// depth), converted into a structured error so the caller — a CLI, a
// harness worker — keeps running.
type PipelineError struct {
	Stage string // "lex", "parse", "analyze", "instrument", "print", "interp", "deploy"
	Pos   string // source position or site description, when known
	Cause error
}

func (e *PipelineError) Error() string {
	if e.Pos != "" {
		return fmt.Sprintf("pipeline: %s stage failed at %s: %v", e.Stage, e.Pos, e.Cause)
	}
	return fmt.Sprintf("pipeline: %s stage failed: %v", e.Stage, e.Cause)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *PipelineError) Unwrap() error { return e.Cause }

// Contain runs fn, converting a panic into a *PipelineError for the given
// stage. Non-panic errors pass through unchanged. Go runtime stack
// exhaustion is not recoverable; depth budgets exist to trip first.
func Contain(stage, pos string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*PipelineError); ok {
				err = pe
				return
			}
			err = &PipelineError{Stage: stage, Pos: pos, Cause: fmt.Errorf("panic: %v", r)}
		}
	}()
	return fn()
}

// Limits configures a Guard. Zero values mean "unlimited" for each budget.
type Limits struct {
	// Fuel bounds cooperative evaluation steps.
	Fuel int64
	// MaxDepth bounds the interpreter call-stack depth.
	MaxDepth int64
	// MaxAlloc bounds allocation units (elements, properties, bytes of
	// string growth) charged by the runtime's amplification sites.
	MaxAlloc int64
	// DeadlineTicks bounds the virtual clock: once Now() passes this many
	// ticks the deadline budget trips. Requires Now to be set.
	DeadlineTicks int64
	// Now reads the virtual clock (e.g. faults.Clock.Now). Nil disables the
	// deadline even when DeadlineTicks is set.
	Now func() int64
}

// Guard tracks resource budgets for one pipeline run. It is not safe for
// concurrent use: one Guard belongs to one interpreter (MiniJS, like
// Node.js, is single-threaded per application). All methods are safe on a
// nil receiver, which behaves as "no governance".
type Guard struct {
	lim Limits

	fuelUsed  int64
	depth     int64
	allocUsed int64
	tripped   *BudgetError
	// deadlineBase rebases the deadline window: the budget trips when the
	// clock passes deadlineBase + DeadlineTicks. Zero until Reset, so a
	// guard that is never reset keeps the original birth-relative window.
	deadlineBase int64

	// OnTrip, when set, observes the first budget trip (the fail-closed
	// integration point: the interpreter poisons the tracker here).
	OnTrip func(*BudgetError)

	// trip counters, resolved once in SetMetrics
	telFuel, telDepth, telAlloc, telDeadline *telemetry.Counter
}

// New creates a guard with the given limits.
func New(lim Limits) *Guard { return &Guard{lim: lim} }

// SetMetrics attaches guard-trip counters (guard.trip.<kind>) to a metrics
// registry; nil detaches.
func (g *Guard) SetMetrics(m *telemetry.Metrics) {
	if g == nil {
		return
	}
	if m == nil {
		g.telFuel, g.telDepth, g.telAlloc, g.telDeadline = nil, nil, nil, nil
		return
	}
	g.telFuel = m.Counter("guard.trip.fuel")
	g.telDepth = m.Counter("guard.trip.depth")
	g.telAlloc = m.Counter("guard.trip.alloc")
	g.telDeadline = m.Counter("guard.trip.deadline")
}

// SetClock installs the virtual-clock reader the deadline budget uses.
// The runtime calls this when a guard is attached, so callers can build
// Limits before an interpreter (and its clock) exists.
func (g *Guard) SetClock(now func() int64) {
	if g == nil {
		return
	}
	g.lim.Now = now
}

// Limits returns the configured limits (zero Limits on a nil guard).
func (g *Guard) Limits() Limits {
	if g == nil {
		return Limits{}
	}
	return g.lim
}

// Tripped returns the first budget error, or nil while within budget.
// Trips are sticky: after the first, every charge returns the same error.
func (g *Guard) Tripped() *BudgetError {
	if g == nil {
		return nil
	}
	return g.tripped
}

// FuelUsed returns the steps charged so far.
func (g *Guard) FuelUsed() int64 {
	if g == nil {
		return 0
	}
	return g.fuelUsed
}

// AllocUsed returns the allocation units charged so far.
func (g *Guard) AllocUsed() int64 {
	if g == nil {
		return 0
	}
	return g.allocUsed
}

// Depth returns the current call-stack depth.
func (g *Guard) Depth() int64 {
	if g == nil {
		return 0
	}
	return g.depth
}

// Reset clears the used budgets and the sticky trip, opening a fresh
// budget epoch with the same limits — the serve daemon calls this between
// messages so one message's exhaustion cannot starve every message after
// it. The deadline window is rebased to the current virtual-clock
// reading: DeadlineTicks of D now trips D ticks from the reset, not D
// ticks from interpreter birth. Depth is cleared too; between messages a
// well-nested interpreter is back at depth zero, and a trip mid-call can
// leave unpaired Enters behind.
func (g *Guard) Reset() {
	if g == nil {
		return
	}
	g.fuelUsed = 0
	g.allocUsed = 0
	g.depth = 0
	g.tripped = nil
	if g.lim.Now != nil {
		g.deadlineBase = g.lim.Now()
	}
}

// trip records the first budget error and returns the sticky error.
func (g *Guard) trip(kind Kind, limit, used int64, site string, c *telemetry.Counter) *BudgetError {
	if g.tripped == nil {
		g.tripped = &BudgetError{Kind: kind, Limit: limit, Used: used, Site: site}
		if c != nil {
			c.Inc()
		}
		if g.OnTrip != nil {
			g.OnTrip(g.tripped)
		}
	}
	return g.tripped
}

// deadlineCheckInterval spaces the deadline reads: the virtual clock only
// moves on explicit advances, so checking every step would be pure
// overhead.
const deadlineCheckInterval = 256

// Step charges n evaluation steps and, periodically, checks the deadline.
// It returns the sticky *BudgetError once any budget has tripped.
func (g *Guard) Step(n int64, site string) error {
	if g == nil {
		return nil
	}
	if g.tripped != nil {
		return g.tripped
	}
	g.fuelUsed += n
	if g.lim.Fuel > 0 && g.fuelUsed > g.lim.Fuel {
		return g.trip(KindFuel, g.lim.Fuel, g.fuelUsed, site, g.telFuel)
	}
	if g.lim.DeadlineTicks > 0 && g.lim.Now != nil && g.fuelUsed%deadlineCheckInterval == 0 {
		if now := g.lim.Now(); now-g.deadlineBase > g.lim.DeadlineTicks {
			return g.trip(KindDeadline, g.lim.DeadlineTicks, now, site, g.telDeadline)
		}
	}
	return nil
}

// StepN charges n steps at once when that is exactly what n calls of
// Step(1, …) would do: it charges only if none of those calls would trip a
// budget or read the clock, that is, when the guard has not tripped, the
// fuel budget has room for all n steps, and either no deadline is armed
// or fuelUsed crosses no multiple of the deadline check interval on the
// way to fuelUsed+n. Then it adds n to fuelUsed and returns true, leaving
// the guard in the state the n single steps would. Otherwise it returns
// false and leaves the guard unchanged, so the caller charges step by step
// and a trip surfaces at the exact step it would have. A nil guard has no
// budgets: it returns true.
func (g *Guard) StepN(n int64) bool {
	if g == nil {
		return true
	}
	used := g.fuelUsed + n
	if g.tripped != nil || g.lim.Fuel > 0 && used > g.lim.Fuel {
		return false
	}
	if g.lim.DeadlineTicks > 0 && g.lim.Now != nil && used/deadlineCheckInterval != g.fuelUsed/deadlineCheckInterval {
		return false
	}
	g.fuelUsed = used
	return true
}

// CheckDeadline reads the virtual clock immediately (used at timer and
// host-op boundaries, where the clock actually advances).
func (g *Guard) CheckDeadline(site string) error {
	if g == nil {
		return nil
	}
	if g.tripped != nil {
		return g.tripped
	}
	if g.lim.DeadlineTicks > 0 && g.lim.Now != nil {
		if now := g.lim.Now(); now-g.deadlineBase > g.lim.DeadlineTicks {
			return g.trip(KindDeadline, g.lim.DeadlineTicks, now, site, g.telDeadline)
		}
	}
	return nil
}

// Enter charges one call frame; pair with Exit on all return paths.
func (g *Guard) Enter(site string) error {
	if g == nil {
		return nil
	}
	if g.tripped != nil {
		return g.tripped
	}
	g.depth++
	if g.lim.MaxDepth > 0 && g.depth > g.lim.MaxDepth {
		return g.trip(KindDepth, g.lim.MaxDepth, g.depth, site, g.telDepth)
	}
	return nil
}

// Exit releases one call frame.
func (g *Guard) Exit() {
	if g == nil {
		return
	}
	if g.depth > 0 {
		g.depth--
	}
}

// Alloc charges n allocation units.
func (g *Guard) Alloc(n int64, site string) error {
	if g == nil || n <= 0 {
		return nil
	}
	if g.tripped != nil {
		return g.tripped
	}
	g.allocUsed += n
	if g.lim.MaxAlloc > 0 && g.allocUsed > g.lim.MaxAlloc {
		return g.trip(KindAlloc, g.lim.MaxAlloc, g.allocUsed, site, g.telAlloc)
	}
	return nil
}
