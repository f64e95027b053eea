package guard

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/telemetry"
)

func TestNilGuardIsNoGovernance(t *testing.T) {
	var g *Guard
	if err := g.Step(1, "x"); err != nil {
		t.Fatalf("nil guard Step: %v", err)
	}
	if !g.StepN(1 << 40) {
		t.Fatal("nil guard refused a StepN batch")
	}
	if err := g.Enter("x"); err != nil {
		t.Fatalf("nil guard Enter: %v", err)
	}
	g.Exit()
	if err := g.Alloc(1<<40, "x"); err != nil {
		t.Fatalf("nil guard Alloc: %v", err)
	}
	if err := g.CheckDeadline("x"); err != nil {
		t.Fatalf("nil guard CheckDeadline: %v", err)
	}
	if g.Tripped() != nil {
		t.Fatal("nil guard reports tripped")
	}
	if g.FuelUsed() != 0 || g.AllocUsed() != 0 || g.Depth() != 0 {
		t.Fatal("nil guard reports nonzero usage")
	}
	g.SetMetrics(telemetry.NewMetrics())
}

func TestZeroLimitsNeverTrip(t *testing.T) {
	g := New(Limits{})
	for i := 0; i < 10_000; i++ {
		if err := g.Step(1, "loop"); err != nil {
			t.Fatalf("unlimited guard tripped: %v", err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := g.Enter("call"); err != nil {
			t.Fatalf("unlimited guard depth tripped: %v", err)
		}
	}
	if err := g.Alloc(1<<40, "big"); err != nil {
		t.Fatalf("unlimited guard alloc tripped: %v", err)
	}
	if g.Tripped() != nil {
		t.Fatal("unlimited guard tripped")
	}
}

func TestFuelTripIsSticky(t *testing.T) {
	g := New(Limits{Fuel: 10})
	var first error
	for i := 0; i < 10; i++ {
		if err := g.Step(1, "ok"); err != nil {
			t.Fatalf("step %d within budget tripped: %v", i, err)
		}
	}
	first = g.Step(1, "pos:11")
	if first == nil {
		t.Fatal("expected fuel trip")
	}
	var be *BudgetError
	if !errors.As(first, &be) || be.Kind != KindFuel || be.Limit != 10 || be.Used != 11 || be.Site != "pos:11" {
		t.Fatalf("unexpected budget error: %#v", first)
	}
	// sticky: same error object, site unchanged, no further accounting
	again := g.Step(1, "pos:12")
	if again != first {
		t.Fatalf("trip not sticky: %v vs %v", again, first)
	}
	if err := g.Alloc(1, "later"); err != first {
		t.Fatalf("alloc after trip should return sticky error, got %v", err)
	}
	if err := g.Enter("later"); err != first {
		t.Fatalf("enter after trip should return sticky error, got %v", err)
	}
	if g.FuelUsed() != 11 {
		t.Fatalf("fuel accounting continued after trip: %d", g.FuelUsed())
	}
}

func TestDepthTripAndExit(t *testing.T) {
	g := New(Limits{MaxDepth: 3})
	for i := 0; i < 3; i++ {
		if err := g.Enter(fmt.Sprintf("call%d", i)); err != nil {
			t.Fatalf("enter %d: %v", i, err)
		}
	}
	err := g.Enter("deep")
	var be *BudgetError
	if !errors.As(err, &be) || be.Kind != KindDepth {
		t.Fatalf("expected depth trip, got %v", err)
	}
	// Exit never underflows.
	g2 := New(Limits{MaxDepth: 3})
	g2.Exit()
	if g2.Depth() != 0 {
		t.Fatalf("exit underflowed: %d", g2.Depth())
	}
	if err := g2.Enter("a"); err != nil {
		t.Fatal(err)
	}
	g2.Exit()
	if g2.Depth() != 0 {
		t.Fatalf("depth after enter/exit: %d", g2.Depth())
	}
}

func TestAllocTrip(t *testing.T) {
	g := New(Limits{MaxAlloc: 100})
	if err := g.Alloc(60, "a"); err != nil {
		t.Fatal(err)
	}
	if err := g.Alloc(0, "zero"); err != nil {
		t.Fatal(err)
	}
	if err := g.Alloc(-5, "neg"); err != nil {
		t.Fatal(err)
	}
	err := g.Alloc(41, "b")
	var be *BudgetError
	if !errors.As(err, &be) || be.Kind != KindAlloc || be.Used != 101 {
		t.Fatalf("expected alloc trip at 101, got %v", err)
	}
}

func TestDeadlineTrip(t *testing.T) {
	var now int64
	g := New(Limits{DeadlineTicks: 50, Now: func() int64 { return now }})
	// Fuel steps only probe the deadline every deadlineCheckInterval.
	now = 100
	if err := g.CheckDeadline("timer"); err == nil {
		t.Fatal("expected deadline trip")
	}
	var be *BudgetError
	if !errors.As(g.Tripped(), &be) || be.Kind != KindDeadline || be.Used != 100 {
		t.Fatalf("unexpected deadline trip: %#v", g.Tripped())
	}

	// Via Step: only fires on the periodic probe.
	now = 0
	g2 := New(Limits{DeadlineTicks: 50, Now: func() int64 { return now }})
	for i := 0; i < deadlineCheckInterval-1; i++ {
		if err := g2.Step(1, "s"); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	now = 200
	err := g2.Step(1, "boundary")
	if !errors.As(err, &be) || be.Kind != KindDeadline {
		t.Fatalf("expected deadline trip at probe boundary, got %v", err)
	}
}

func TestDeadlineWithoutClockNeverTrips(t *testing.T) {
	g := New(Limits{DeadlineTicks: 1})
	if err := g.CheckDeadline("x"); err != nil {
		t.Fatalf("deadline without Now tripped: %v", err)
	}
}

func TestOnTripFiresOnce(t *testing.T) {
	g := New(Limits{Fuel: 1})
	var fired []Kind
	g.OnTrip = func(be *BudgetError) { fired = append(fired, be.Kind) }
	g.Step(1, "a")
	g.Step(1, "b")
	g.Step(1, "c")
	if len(fired) != 1 || fired[0] != KindFuel {
		t.Fatalf("OnTrip fired %v", fired)
	}
}

func TestTripCountersExported(t *testing.T) {
	m := telemetry.NewMetrics()
	g := New(Limits{Fuel: 1})
	g.SetMetrics(m)
	g.Step(5, "x")
	g.Step(5, "x")
	if got := m.Counter("guard.trip.fuel").Value(); got != 1 {
		t.Fatalf("guard.trip.fuel = %d, want 1", got)
	}
	if got := m.Counter("guard.trip.depth").Value(); got != 0 {
		t.Fatalf("guard.trip.depth = %d, want 0", got)
	}
}

func TestErrorStrings(t *testing.T) {
	be := &BudgetError{Kind: KindFuel, Limit: 10, Used: 11, Site: "app.js:3:1"}
	if !strings.Contains(be.Error(), "fuel") || !strings.Contains(be.Error(), "app.js:3:1") {
		t.Fatalf("budget error text: %q", be.Error())
	}
	pe := &PipelineError{Stage: "parse", Pos: "x.js:1:1", Cause: errors.New("boom")}
	if !strings.Contains(pe.Error(), "parse") || !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("pipeline error text: %q", pe.Error())
	}
	if !errors.Is(pe, pe.Cause) {
		t.Fatal("PipelineError does not unwrap to cause")
	}
}

func TestContain(t *testing.T) {
	// Plain error passes through.
	sentinel := errors.New("plain")
	if err := Contain("interp", "", func() error { return sentinel }); err != sentinel {
		t.Fatalf("plain error not passed through: %v", err)
	}
	// nil passes through.
	if err := Contain("interp", "", func() error { return nil }); err != nil {
		t.Fatalf("nil not passed through: %v", err)
	}
	// Panic becomes PipelineError.
	err := Contain("instrument", "f.js", func() error { panic("kaboom") })
	var pe *PipelineError
	if !errors.As(err, &pe) || pe.Stage != "instrument" || pe.Pos != "f.js" {
		t.Fatalf("panic not contained: %#v", err)
	}
	if !strings.Contains(pe.Cause.Error(), "kaboom") {
		t.Fatalf("cause lost: %v", pe.Cause)
	}
	// A panicked *PipelineError is passed through verbatim (stage-local
	// aborts like the parser's depth limit).
	orig := &PipelineError{Stage: "parse", Pos: "p", Cause: errors.New("deep")}
	err = Contain("outer", "", func() error { panic(orig) })
	if err != orig {
		t.Fatalf("inner PipelineError not preserved: %#v", err)
	}
}

func TestResetOpensFreshBudgetEpoch(t *testing.T) {
	var now int64
	g := New(Limits{Fuel: 10, MaxAlloc: 50, MaxDepth: 3, DeadlineTicks: 100, Now: func() int64 { return now }})
	if err := g.Step(11, "a"); err == nil {
		t.Fatal("fuel not tripped")
	}
	if g.Tripped() == nil {
		t.Fatal("trip not sticky before reset")
	}
	g.Reset()
	if g.Tripped() != nil || g.FuelUsed() != 0 || g.AllocUsed() != 0 || g.Depth() != 0 {
		t.Fatalf("reset left residue: tripped=%v fuel=%d alloc=%d depth=%d",
			g.Tripped(), g.FuelUsed(), g.AllocUsed(), g.Depth())
	}
	if err := g.Step(9, "b"); err != nil {
		t.Fatalf("fresh epoch charged against old usage: %v", err)
	}
}

func TestResetRebasesDeadlineWindow(t *testing.T) {
	var now int64
	g := New(Limits{DeadlineTicks: 100, Now: func() int64 { return now }})
	now = 150
	if err := g.CheckDeadline("a"); err == nil {
		t.Fatal("deadline not tripped 150 ticks from birth")
	}
	g.Reset()
	now = 240
	if err := g.CheckDeadline("b"); err != nil {
		t.Fatalf("deadline measured from birth, not from reset: %v", err)
	}
	now = 251
	if err := g.CheckDeadline("c"); err == nil {
		t.Fatal("rebased deadline never tripped")
	}
	var be *BudgetError
	if !errors.As(g.Tripped(), &be) || be.Kind != KindDeadline {
		t.Fatalf("tripped = %v, want deadline kind", g.Tripped())
	}
}

func TestResetOnNilGuard(t *testing.T) {
	var g *Guard
	g.Reset() // must not panic
}

// StepN batches only what single steps would do without a trip or a clock
// read. The table compares it with n calls of Step(1, …) on an identical
// guard from every starting fuel in [0, 600) (past two deadline check
// intervals), for every batch size up to 40, against fuel budgets just
// below, at and above the batch's end (and unlimited), with no deadline, a
// deadline whose clock never trips and one already past, on fresh and
// already-tripped guards.
func TestStepNIsExactlyNSingleSteps(t *testing.T) {
	type clock struct {
		name  string
		armed bool
		now   int64
	}
	clocks := []clock{{"none", false, 0}, {"within", true, 0}, {"past", true, 100}}
	// build returns a guard with u fuel used and a counter of its clock
	// reads.
	build := func(u, fuel int64, c clock, tripped bool) (*Guard, *int) {
		reads := new(int)
		lim := Limits{Fuel: fuel}
		if tripped {
			lim.MaxAlloc = 1
		}
		if c.armed {
			lim.DeadlineTicks = 50
			lim.Now = func() int64 { *reads++; return c.now }
		}
		g := New(lim)
		g.fuelUsed = u
		if tripped {
			_ = g.Alloc(2, "pre")
		}
		return g, reads
	}
	type state struct {
		fuel, depth, alloc, base int64
		tripped                  *BudgetError
	}
	snap := func(g *Guard) state {
		return state{g.fuelUsed, g.depth, g.allocUsed, g.deadlineBase, g.tripped}
	}
	var charged, refused int
	for u := int64(0); u < 600; u++ {
		for n := int64(1); n <= 40; n++ {
			for _, fuel := range []int64{0, u + n - 1, u + n, u + n + 1} {
				for _, c := range clocks {
					for _, tripped := range []bool{false, true} {
						single, singleReads := build(u, fuel, c, tripped)
						clean := true
						for k := int64(0); k < n; k++ {
							if single.Step(1, "") != nil {
								clean = false
							}
						}
						clean = clean && *singleReads == 0
						batch, batchReads := build(u, fuel, c, tripped)
						before := snap(batch)
						ok := batch.StepN(n)
						where := fmt.Sprintf("u=%d n=%d fuel=%d clock=%s tripped=%v", u, n, fuel, c.name, tripped)
						if ok != clean {
							t.Fatalf("%s: StepN = %v, single steps clean = %v", where, ok, clean)
						}
						if *batchReads != 0 {
							t.Fatalf("%s: StepN read the clock %d times", where, *batchReads)
						}
						if ok && (batch.FuelUsed() != single.FuelUsed() || *batchReads != *singleReads) {
							t.Fatalf("%s: batch used %d fuel, single steps %d", where, batch.FuelUsed(), single.FuelUsed())
						}
						if !ok && snap(batch) != before {
							t.Fatalf("%s: refused StepN changed the guard: %+v, was %+v", where, snap(batch), before)
						}
						if ok {
							charged++
						} else {
							refused++
						}
					}
				}
			}
		}
	}
	if charged == 0 || refused == 0 {
		t.Fatalf("%d batches charged, %d refused: the table is vacuous", charged, refused)
	}
}
