package interp

import (
	"fmt"
	"math"
	"testing"

	"turnstile/internal/ast"
	"turnstile/internal/parser"
	"turnstile/internal/resolve"
	"turnstile/internal/vm"
)

// The bytecode VM must be observationally identical to the tree-walker:
// same console output, same errors (message and position), same step
// counts (charge parity). These tests run every source three ways — VM
// (default), tree-walk on slots, and the resolver's NoResolve map walk —
// and require exact agreement.

func runVMMode(t *testing.T, src string, engine Engine, noResolve bool) (*Interp, error) {
	t.Helper()
	prog, err := parser.Parse("vm.js", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !noResolve {
		resolve.Resolve(prog)
	}
	ip := New()
	ip.Engine = engine
	ip.NoResolve = noResolve
	return ip, ip.Run(prog)
}

// vmTriModes asserts VM, tree-walk and map-walk agree on console output,
// error text and step count for src, and returns the VM's run.
func vmTriModes(t *testing.T, src string) engineRun {
	t.Helper()
	obs := func(engine Engine, noResolve bool) engineRun {
		ip, err := runVMMode(t, src, engine, noResolve)
		o := engineRun{logs: ip.ConsoleOut, steps: ip.Steps()}
		if err != nil {
			o.err = err.Error()
		}
		return o
	}
	vmOut := obs(EngineVM, false)
	walkOut := obs(EngineWalker, false)
	mapOut := obs(EngineWalker, true)
	if fmt.Sprint(vmOut.logs) != fmt.Sprint(walkOut.logs) || vmOut.err != walkOut.err {
		t.Fatalf("vm/walker divergence\nvm:   %v err=%q\nwalk: %v err=%q\nsource:\n%s",
			vmOut.logs, vmOut.err, walkOut.logs, walkOut.err, src)
	}
	if vmOut.steps != walkOut.steps {
		t.Fatalf("charge divergence: vm steps=%d walker steps=%d\nsource:\n%s",
			vmOut.steps, walkOut.steps, src)
	}
	if fmt.Sprint(vmOut.logs) != fmt.Sprint(mapOut.logs) || vmOut.err != mapOut.err {
		t.Fatalf("vm/map-walk divergence\nvm:  %v err=%q\nmap: %v err=%q\nsource:\n%s",
			vmOut.logs, vmOut.err, mapOut.logs, mapOut.err, src)
	}
	return vmOut
}

// engineRun is what one engine run shows: console lines, the error text
// ("" for none) and the step count.
type engineRun struct {
	logs  []string
	err   string
	steps int64
}

func TestVMIsActuallyExercised(t *testing.T) {
	prog, err := parser.Parse("vm.js", "function f(x){ return x + 1; } console.log(f(41));")
	if err != nil {
		t.Fatal(err)
	}
	resolve.Resolve(prog)
	ip := New()
	if err := ip.Run(prog); err != nil {
		t.Fatal(err)
	}
	if len(ip.progMods) != 1 {
		t.Fatalf("program was not compiled: progMods=%d", len(ip.progMods))
	}
	if len(ip.funcCode) == 0 {
		t.Fatal("no function chunks registered")
	}
	if len(ip.ConsoleOut) != 1 || ip.ConsoleOut[0] != "42" {
		t.Fatalf("logs = %v", ip.ConsoleOut)
	}
	// the walker engine must keep the compiler entirely out of play
	ip2 := New()
	ip2.Engine = EngineWalker
	if err := ip2.Run(prog); err != nil {
		t.Fatal(err)
	}
	if len(ip2.progMods) != 0 {
		t.Fatal("the walker engine still compiled the program")
	}
}

func TestVMConstructMatrix(t *testing.T) {
	cases := map[string]string{
		"arith": `
			var a = 1 + 2 * 3 - 4 / 2;
			console.log(a, a % 3, 2 ** 3, 7 // comment
				& 5 | 2 ^ 1, 1 << 4 >> 2);`,
		"strings": `
			var s = "a" + "b" + 1;
			console.log(s, s.length, s.toUpperCase(), "x" + [1,2], "y" + {});
			console.log(` + "`tmpl ${s} ${1+1}`" + `);`,
		"compare": `
			console.log(1 < 2, "a" < "b", 3 >= 3, 1 === "1", 1 == "1", null ?? "d", 0 || "z", "" && "q");`,
		"loops": `
			var total = 0;
			for (var i = 0; i < 5; i++) { if (i === 2) continue; total += i; }
			var j = 0;
			while (j < 3) { j++; if (j === 2) break; }
			var k = 0;
			do { k++; } while (k < 2);
			console.log(total, j, k);`,
		"nested-break": `
			var hits = 0;
			for (let i = 0; i < 3; i++) {
				for (let j = 0; j < 3; j++) {
					if (j > i) break;
					if (i === 2 && j === 1) continue;
					hits++;
				}
			}
			console.log(hits);`,
		"closures": `
			function counter() { let n = 0; return function(){ n++; return n; }; }
			var c1 = counter(), c2 = counter();
			c1(); c1();
			console.log(c1(), c2());`,
		"let-capture": `
			var fns = [];
			for (let i = 0; i < 3; i++) { fns.push(function(){ return i; }); }
			console.log(fns[0](), fns[1](), fns[2]());`,
		"objects": `
			var o = { a: 1, b: { c: 2 } };
			o.d = o.a + o.b.c;
			o["e"] = "x";
			delete o.a;
			console.log(JSON.stringify(o), o.missing, typeof o.b);`,
		"arrays": `
			var a = [1, 2, 3];
			a.push(4); a.unshift(0);
			console.log(a.map(function(x){ return x * 2; }).filter(function(x){ return x > 2; }).join(","), a.length, a[2]);`,
		"update-compound": `
			var n = 10;
			console.log(n++, ++n, n--, --n, n += 5, n -= 2, n *= 2, n /= 4);`,
		"member-update": `
			var o = { n: 1 };
			o.n++; ++o.n; o.n += 10;
			console.log(o.n);`,
		"cond-seq": `
			var x = (1, 2, 3);
			console.log(x > 2 ? "big" : "small", x);`,
		"switch": `
			function f(v) {
				switch (v) {
				case 1: return "one";
				case 2: case 3: return "few";
				default: return "many";
				}
			}
			console.log(f(1), f(3), f(9));`,
		"forin": `
			var o = { a: 1, b: 2 }, keys = [];
			for (var k in o) { keys.push(k); }
			for (var v of [10, 20]) { keys.push(v); }
			console.log(keys.join(","));`,
		"classes": `
			class Animal {
				constructor(name) { this.name = name; }
				speak() { return this.name + " makes a sound"; }
			}
			class Dog extends Animal {
				speak() { return this.name + " barks"; }
			}
			var d = new Dog("Rex");
			console.log(d.speak(), d instanceof Animal);`,
		"ctor-func": `
			function Point(x, y) { this.x = x; this.y = y; }
			Point.prototype.norm = function(){ return this.x * this.x + this.y * this.y; };
			var p = new Point(3, 4);
			console.log(p.norm());`,
		"rest-spread": `
			function sum() { var t = 0; for (var i = 0; i < arguments.length; i++) t += arguments[i]; return t; }
			function rest(first, ...more) { return first + ":" + more.join("+"); }
			var a = [1, 2, 3];
			console.log(sum(...a, 4), rest(0, ...a));`,
		"implicit-global": `
			function f() { leaked = 99; }
			f();
			console.log(leaked);`,
		"arrow-this": `
			var o = { n: 7, get: function(){ var f = () => this.n; return f(); } };
			console.log(o.get());`,
		"throw-catch": `
			function boom() { throw new Error("pow"); }
			try { boom(); } catch (e) { console.log("caught", e.message); }
			finally { console.log("finally"); }`,
		"try-control": `
			function f() {
				for (var i = 0; i < 5; i++) {
					try {
						if (i === 1) continue;
						if (i === 3) break;
						console.log("body", i);
					} finally { console.log("fin", i); }
				}
				try { return "ret"; } finally { console.log("fin ret"); }
			}
			console.log(f());`,
		"finally-overrides": `
			function f() {
				try { throw new Error("x"); }
				finally { return "from-finally"; }
			}
			console.log(f());`,
		"nested-try": `
			try {
				try { throw new Error("inner"); }
				catch (e) { console.log("inner caught"); throw new Error("re"); }
				finally { console.log("inner fin"); }
			} catch (e) { console.log("outer", e.message); }`,
		"undefined-ident": `console.log(nope);`,
		"not-function":    `var x = 5; x();`,
		"const-assign":    `const c = 1; c = 2;`,
		"uncaught-throw":  `throw { message: "raw" };`,
		"recursion": `
			function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
			console.log(fib(15));`,
		"string-builtins": `
			var s = "hello world";
			console.log(s.split(" ")[1], s.indexOf("o"), s.slice(1, 4), s.replace("world", "vm"), "ab".repeat(3), "5".padStart(3, "0"));`,
		"json-math": `
			console.log(JSON.parse('{"a":[1,2]}').a[1], Math.max(1, 9, 4), Math.floor(2.7), Number("12") + 1, String(7) + "!", parseInt("42px"));`,
		"logical-assign-delegated": `
			var a = null, b = 0, c = 1;
			a ??= "na"; b ||= "nb"; c &&= "nc";
			console.log(a, b, c);`,
		"void-typeof-delete": `
			var o = { k: 1 };
			console.log(void 0, typeof 1, typeof "s", typeof undef_thing, delete o.k, o.k);`,
		"mod-sign": `
			var a = -4, b = 2;
			console.log(1 / (a % b), 1 / (-0 % 5), 1 / (4 % 2), -7 % 3, 7 % -3, 5.5 % 2, 9007199254740992 % 3);`,
		"negative-unary": `
			var n = "5";
			console.log(-n, +n, !n, ~n, -"x");`,
		"element-call": `
			const fns = [function (x) { return x + 1; }, function (x) { return x * this.length; }];
			var out = "";
			for (var k = 0; k < fns.length; k++) { out = out + fns[k](5) + ","; }
			console.log("" + fns[0](1), out, fns["1"](3));`,
		"element-call-not-function": `var a = [1]; a[0](2);`,
		"element-call-missing":      `var a = []; a[3](2);`,
	}
	for name, src := range recycledScopeRows {
		cases[name] = src
	}
	// rows whose result is pinned, not only compared across engines
	want := map[string]engineRun{
		"let-capture":               {logs: []string{"0 1 2"}},
		"element-call":              {logs: []string{"2 6,10, 6"}},
		"element-call-not-function": {err: "runtime error at 1:14: number is not a function"},
		"element-call-missing":      {err: "runtime error at 1:13: undefined is not a function"},
		"recycled-block-unbound":    {logs: []string{"outer,0;outer,1;outer,2;"}},
		"recycled-const-flags":      {logs: []string{"0:10,1:11,2:12,"}},
		"recycled-popn":             {logs: []string{"0,4,6, 0,4,"}},
		"recycled-return":           {logs: []string{"30 40 1020"}},
		"recycled-throw":            {logs: []string{"at 2 done 5 at 1 done 9"}},
		"recycled-recursion":        {logs: []string{"31"}},
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			got := vmTriModes(t, src)
			if w, ok := want[name]; ok && (fmt.Sprint(got.logs) != fmt.Sprint(w.logs) || got.err != w.err) {
				t.Fatalf("console %q err %q, want console %q err %q", got.logs, got.err, w.logs, w.err)
			}
		})
	}
}

// recycledScopeRows run their loops in function chunks that cannot capture
// their environment (vm.Chunk.NoCapture), whose block scopes the VM takes
// from and returns to its environment pool and whose `for (let …)`
// bindings it does not copy per iteration: a re-entered block starts
// unbound, a scope that reuses a const's environment can assign its own
// let, OpPopN and the fall-through pop return every scope, and a return,
// a throw or a recursive call in the middle of a loop leaves the pool
// sound for the next call.
var recycledScopeRows = map[string]string{
	"recycled-block-unbound": `
		var x = "outer";
		function f() {
			var seen = "";
			for (let i = 0; i < 3; i++) {
				{
					seen = seen + x + ",";
					let x = i;
					seen = seen + x + ";";
				}
			}
			return seen;
		}
		console.log(f());`,
	"recycled-const-flags": `
		function k(n) {
			var out = "";
			for (let i = 0; i < n; i++) {
				{ const c = i; out = out + c; }
				{ let v = i; v = v + 10; out = out + ":" + v + ","; }
			}
			return out;
		}
		console.log(k(3));`,
	"recycled-popn": `
		function g(n) {
			var log = "";
			for (let i = 0; i < n; i++) {
				{
					let a = i;
					{
						const b = a * 2;
						if (b === 2) continue;
						if (b === 8) break;
						log = log + b + ",";
					}
				}
			}
			return log;
		}
		console.log(g(10), g(3));`,
	"recycled-return": `
		function h(n) {
			for (let i = 0; i < 5; i++) {
				{
					let a = i + n;
					{
						const b = a * 10;
						if (i === 2) return b;
					}
				}
			}
			return -1;
		}
		console.log(h(1), h(2), h(100));`,
	"recycled-throw": `
		function t(n) {
			for (let i = 0; i < 3; i++) {
				{
					let a = i;
					{
						const b = a + n;
						if (b === 2) throw "at " + i;
					}
				}
			}
			return "done " + n;
		}
		function call(n) { try { return t(n); } catch (e) { return e; } }
		console.log(call(0), call(5), call(1), call(9));`,
	"recycled-recursion": `
		function r(n) {
			var s = 0;
			for (let i = 0; i < n; i++) {
				{
					const c = r(i);
					s = s + c + 1;
				}
			}
			return s;
		}
		console.log(r(5));`,
}

// TestRecycledScopeRowsRunNoCapture keeps recycledScopeRows from going
// vacuous: each row compiles a NoCapture chunk that opens a block scope
// and copies a loop binding per iteration, and the PopN row pops through
// OpPopN.
func TestRecycledScopeRowsRunNoCapture(t *testing.T) {
	for name, src := range recycledScopeRows {
		prog, err := parser.Parse("vm.js", src)
		if err != nil {
			t.Fatal(err)
		}
		resolve.Resolve(prog)
		found := false
		for _, ch := range vm.Compile(prog).Funcs {
			ops := map[vm.Op]bool{}
			for _, in := range ch.Code {
				ops[in.Op] = true
			}
			if ch.NoCapture && ops[vm.OpPushScope] && ops[vm.OpIterCopy] && (name != "recycled-popn" || ops[vm.OpPopN]) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no NoCapture chunk recycles a block scope", name)
		}
	}
}

// TestICEpochCrossProgramStaleness is the regression test for the IC
// cross-program staleness bugfix: IC tables only grow and were guarded
// solely by the AST node pointer, so a reused node ID whose AST
// allocation aliases a retired program's node could validate a stale
// cached Value against a receiver that survives in the globals — a
// cross-program (and under serve, cross-tenant) label-leak channel. The
// test deploys two programs back-to-back on one interpreter, forges the
// pointer-aliasing collision the allocator cannot be forced to produce,
// and asserts the stale value is not served.
func TestICEpochCrossProgramStaleness(t *testing.T) {
	parseResolved := func(src string) *ast.Program {
		prog, err := parser.Parse("app.js", src)
		if err != nil {
			t.Fatal(err)
		}
		resolve.Resolve(prog)
		return prog
	}
	// progA fills the IC for the o.secret read site; o survives in globals.
	progA := parseResolved(`var o = { secret: "A" }; console.log(o.secret);`)
	// progB reads the same global receiver through a fresh AST.
	progB := parseResolved(`o.secret = "B"; console.log(o.secret);`)

	ip := New()
	if err := ip.Run(progA); err != nil {
		t.Fatal(err)
	}

	// Locate progB's o.secret read site and the live receiver.
	var siteB *ast.MemberExpr
	for _, s := range progB.Body {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		if m, ok := call.Args[0].(*ast.MemberExpr); ok {
			siteB = m
		}
	}
	if siteB == nil {
		t.Fatal("could not locate o.secret read in progB")
	}
	ov, ok := ip.Globals.Lookup("o")
	if !ok {
		t.Fatal("global o missing after progA")
	}
	o := ov.(*Object)

	// Forge the aliasing collision: progB's node pointer occupying an IC
	// slot filled under progA, still holding progA's cached Value and a
	// receiver version that will be current at read time (o.secret = "B"
	// bumps version once before the read).
	ip.ensureICs(progB.MaxID)
	id := siteB.NodeID()
	if id < 0 || id >= len(ip.ics) {
		t.Fatalf("bad node id %d", id)
	}
	ip.ics[id] = icEntry{
		node:    siteB,
		epoch:   ip.icEpoch, // progA's epoch
		recv:    o,
		recvVer: o.version + 1,
		val:     "A-stale",
	}

	if err := ip.Run(progB); err != nil {
		t.Fatal(err)
	}
	got := ip.ConsoleOut[len(ip.ConsoleOut)-1]
	if got != "B" {
		t.Fatalf("stale IC value served across program swap: logged %q, want \"B\"", got)
	}
	if e := &ip.ics[id]; e.node == siteB && e.epoch != ip.icEpoch {
		t.Fatalf("refilled entry carries wrong epoch %d (interp at %d)", e.epoch, ip.icEpoch)
	}
}

// TestICVersionWraparound is the regression test for the version-counter
// widening: with uint32 counters, exactly 2^32 property writes return the
// version to the value cached in an IC entry, re-validating a stale
// Value. The counters are now uint64; this forces an object across the
// 2^32 boundary and asserts the cache misses.
func TestICVersionWraparound(t *testing.T) {
	prog, err := parser.Parse("wrap.js", `var o = { x: "old" }; console.log(o.x);`)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Resolve(prog)
	ip := New()
	if err := ip.Run(prog); err != nil {
		t.Fatal(err)
	}

	ov, _ := ip.Globals.Lookup("o")
	o := ov.(*Object)
	var site *ast.MemberExpr
	var filled *icEntry
	for i := range ip.ics {
		if ip.ics[i].recv == o {
			filled = &ip.ics[i]
			site = ip.ics[i].node
		}
	}
	if filled == nil {
		t.Fatal("IC entry for o.x was not filled")
	}
	cachedVer := filled.recvVer

	// Simulate 2^32 writes landing back on the cached version modulo 2^32:
	// the property changes, the 64-bit counter advances by exactly 1<<32.
	o.props["x"] = "new"
	o.version = cachedVer + (1 << 32)
	if uint32(o.version) != uint32(cachedVer) {
		t.Fatal("test setup: 32-bit view of the version must collide")
	}

	v, hit := ip.icRead(site, o, "x")
	if !hit {
		t.Fatal("expected a refill hit on the own property")
	}
	if v != "new" {
		t.Fatalf("wrapped version counter re-validated a stale IC entry: got %q, want \"new\"", v)
	}
	if filled.recvVer != o.version {
		t.Fatalf("refill recorded version %d, want %d", filled.recvVer, o.version)
	}
	if o.version <= math.MaxUint32 {
		t.Fatal("counter did not cross the 2^32 boundary")
	}
}

// TestVMBudgetParity: guard budget trips must fire at the same step with
// the same site attribution under both engines.
func TestVMBudgetParity(t *testing.T) {
	src := `var i = 0; while (true) { i = i + 1; }`
	trip := func(engine Engine) (int64, string) {
		prog, err := parser.Parse("spin.js", src)
		if err != nil {
			t.Fatal(err)
		}
		resolve.Resolve(prog)
		ip := New()
		ip.Engine = engine
		ip.MaxSteps = 10_000
		err = ip.Run(prog)
		if err == nil {
			t.Fatal("expected step budget trip")
		}
		return ip.Steps(), err.Error()
	}
	vmSteps, vmErr := trip(EngineVM)
	wkSteps, wkErr := trip(EngineWalker)
	if vmSteps != wkSteps || vmErr != wkErr {
		t.Fatalf("budget divergence: vm (%d, %q) vs walker (%d, %q)", vmSteps, vmErr, wkSteps, wkErr)
	}
}

// TestIdentCachePerInterpreter: the dynamic-global cache is invalidated
// by map-based defines of its own interpreter only. Another interpreter's
// defines leave a filled entry valid; an inner map binding that shadows
// the cached global retires it.
func TestIdentCachePerInterpreter(t *testing.T) {
	prog, err := parser.Parse("g.js", `var g = "global"; function read() { return g; }`)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Resolve(prog)
	ip := New()
	if err := ip.Run(prog); err != nil {
		t.Fatal(err)
	}
	fnV, _ := ip.Globals.Lookup("read")
	read := fnV.(*Function)
	// read's closure sits under a map scope between it and Globals
	inner := NewEnv(ip.Globals)
	shadowable := &Function{Name: "read", Decl: read.Decl, Code: read.Code, Env: inner}
	call := func() Value {
		v, err := ip.CallFunction(shadowable, undef, nil, ast.Pos{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := call(); v != "global" {
		t.Fatalf("read() = %v", v)
	}
	valid := func() bool {
		for _, e := range ip.identICs {
			if e.node != nil && e.node.Name == "g" {
				return e.epoch == ip.icEpoch && e.dyn == ip.envMapDefines
			}
		}
		t.Fatal("no cache entry for g")
		return false
	}
	if !valid() {
		t.Fatal("cache entry for g not filled")
	}
	other := New()
	for i := 0; i < 3; i++ {
		other.defineMap(NewEnv(other.Globals), "g", float64(i), false)
	}
	if !valid() {
		t.Fatal("another interpreter's defines invalidated the cache")
	}
	ip.defineMap(inner, "g", "shadow", false)
	if valid() {
		t.Fatal("a shadowing map binding left the cache entry valid")
	}
	if v := call(); v != "shadow" {
		t.Fatalf("read() after shadowing = %v", v)
	}
}

// TestLoopIterationsDoNotAllocate pins the VM's recycling of block scopes
// in chunks that cannot capture their environment (vm.Chunk.NoCapture): a
// `for (let …)` body that opens a block with two consts and counts with
// `i++` costs the same allocations per call at 10 and at 400 iterations.
// Every value stays below 1024, so each number it stores is an interned
// box.
func TestLoopIterationsDoNotAllocate(t *testing.T) {
	prog, err := parser.Parse("loop.js", `
function loop(n) {
  var acc = 0;
  for (let i = 0; i < n; i++) {
    const a = i * 2;
    const b = a + 1;
    acc = acc + b - a;
  }
  return acc;
}`)
	if err != nil {
		t.Fatal(err)
	}
	resolve.Resolve(prog)
	ip := New()
	if err := ip.Run(prog); err != nil {
		t.Fatal(err)
	}
	fnV, _ := ip.Globals.Lookup("loop")
	fn := fnV.(*Function)
	if fn.Code == nil || !fn.Code.NoCapture {
		t.Fatal("loop does not run as a NoCapture chunk: the gate is vacuous")
	}
	allocs := func(n float64) float64 {
		args := []Value{n}
		return testing.AllocsPerRun(50, func() {
			v, err := ip.CallFunction(fn, undef, args, ast.Pos{})
			if err != nil || v != n {
				t.Fatalf("loop(%v) = %v, %v", n, v, err)
			}
		})
	}
	if few, many := allocs(10), allocs(400); many != few {
		t.Fatalf("loop allocates %.0f times per call at n = 10 and %.0f at n = 400", few, many)
	}
}
