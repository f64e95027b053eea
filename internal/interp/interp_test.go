package interp

import (
	"strings"
	"testing"
	"testing/quick"

	"turnstile/internal/parser"
	"turnstile/internal/resolve"
)

// run executes src in a fresh interpreter and returns it.
func run(t *testing.T, src string) *Interp {
	t.Helper()
	ip := New()
	prog, err := parser.Parse("test.js", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ip.Run(prog); err != nil {
		t.Fatalf("run: %v\nsource:\n%s", err, src)
	}
	return ip
}

// logs runs src and returns console output lines.
func logs(t *testing.T, src string) []string {
	t.Helper()
	return run(t, src).ConsoleOut
}

func wantLogs(t *testing.T, src string, want ...string) {
	t.Helper()
	got := logs(t, src)
	if len(got) != len(want) {
		t.Fatalf("log lines = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestArithmeticAndStrings(t *testing.T) {
	wantLogs(t, `
console.log(1 + 2 * 3);
console.log("a" + "b" + 1);
console.log(10 / 4);
console.log(7 % 3);
console.log(2 ** 10);
console.log("x" + undefined);
console.log(5 + null);
`, "7", "ab1", "2.5", "1", "1024", "xundefined", "5")
}

func TestComparisonsAndLogic(t *testing.T) {
	wantLogs(t, `
console.log(1 < 2, 2 <= 2, 3 > 4, "a" < "b");
console.log(1 == "1", 1 === "1", null == undefined, null === undefined);
console.log(true && "yes", false || "fallback", null ?? "default");
`, "true true false true", "true false true false", "yes fallback default")
}

func TestVarScopingAndClosures(t *testing.T) {
	wantLogs(t, `
function counter() {
  let n = 0;
  return () => { n = n + 1; return n; };
}
const c1 = counter();
const c2 = counter();
console.log(c1(), c1(), c1(), c2());
`, "1 2 3 1")
}

func TestHigherOrderClosure(t *testing.T) {
	// the paper's §4.5 example: x => (y => x + y)
	wantLogs(t, `
const add = x => (y => x + y);
const add5 = add(5);
console.log(add5(3), add(1)(2));
`, "8 3")
}

func TestControlFlow(t *testing.T) {
	wantLogs(t, `
let total = 0;
for (let i = 0; i < 10; i++) {
  if (i % 2 === 0) continue;
  if (i > 7) break;
  total += i;
}
console.log(total);
let n = 0;
while (n < 5) { n++; }
do { n++; } while (n < 3);
console.log(n);
`, "16", "6")
}

func TestForInForOf(t *testing.T) {
	wantLogs(t, `
const obj = { a: 1, b: 2, c: 3 };
let keys = "";
for (const k in obj) keys += k;
console.log(keys);
let sum = 0;
for (const v of [10, 20, 30]) sum += v;
console.log(sum);
let chars = "";
for (const ch of "abc") chars += ch + ".";
console.log(chars);
`, "abc", "60", "a.b.c.")
}

func TestSwitch(t *testing.T) {
	wantLogs(t, `
function cls(x) {
  switch (x) {
    case 1: return "one";
    case 2:
    case 3: return "few";
    default: return "many";
  }
}
console.log(cls(1), cls(2), cls(3), cls(9));
let log = "";
switch (2) {
  case 1: log += "a";
  case 2: log += "b";
  case 3: log += "c"; break;
  case 4: log += "d";
}
console.log(log);
`, "one few few many", "bc")
}

func TestExceptions(t *testing.T) {
	wantLogs(t, `
function risky(x) {
  if (x < 0) throw new Error("negative: " + x);
  return x * 2;
}
try {
  console.log(risky(5));
  console.log(risky(-1));
  console.log("unreached");
} catch (e) {
  console.log("caught", e.message);
} finally {
  console.log("finally");
}
`, "10", "caught negative: -1", "finally")
}

func TestThrowNonError(t *testing.T) {
	wantLogs(t, `
try { throw "plain"; } catch (e) { console.log(e); }
`, "plain")
}

func TestUncaughtThrowSurfaces(t *testing.T) {
	ip := New()
	prog := parser.MustParse("t.js", `throw new Error("boom");`)
	err := ip.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestObjectsAndArrays(t *testing.T) {
	wantLogs(t, `
const person = { name: "kim", tags: ["a", "b"] };
person.age = 30;
person["role"] = "dev";
console.log(person.name, person.age, person.role, person.tags.length);
delete person.age;
console.log(person.age);
const arr = [1, 2, 3];
arr.push(4);
arr[10] = 99;
console.log(arr.length, arr[10], arr[5]);
`, "kim 30 dev 2", "undefined", "11 99 undefined")
}

func TestSpreadAndShorthand(t *testing.T) {
	wantLogs(t, `
const base = { a: 1, b: 2 };
const ext = { ...base, c: 3 };
console.log(ext.a + ext.b + ext.c);
const xs = [1, 2];
const ys = [...xs, 3, ...xs];
console.log(ys.join("-"));
function sum(...nums) { return nums.reduce((a, b) => a + b, 0); }
console.log(sum(1, 2, 3), sum(...ys));
const x = 5;
const short = { x };
console.log(short.x);
`, "6", "1-2-3-1-2", "6 9", "5")
}

func TestArrayMethods(t *testing.T) {
	wantLogs(t, `
const xs = [3, 1, 4, 1, 5];
console.log(xs.map(x => x * 2).join(","));
console.log(xs.filter(x => x > 1).join(","));
console.log(xs.indexOf(4), xs.includes(9));
console.log(xs.slice(1, 3).join(","));
console.log([["a", 1], ["b", 2]].flat().join(","));
console.log([5, 3, 9].sort((a, b) => a - b).join(","));
console.log(xs.find(x => x > 3), xs.findIndex(x => x > 3));
console.log(xs.some(x => x === 5), xs.every(x => x < 6));
`, "6,2,8,2,10", "3,4,5", "2 false", "1,4", "a,1,b,2", "3,5,9", "4 2", "true true")
}

func TestStringMethods(t *testing.T) {
	wantLogs(t, `
const s = "Hello World";
console.log(s.toUpperCase(), s.toLowerCase());
console.log(s.split(" ").join("|"));
console.log(s.indexOf("World"), s.includes("World"), s.startsWith("He"));
console.log(s.slice(0, 5), s.substring(6), s.charAt(0));
console.log("  pad  ".trim(), "ab".repeat(3));
console.log(s.replace("World", "MiniJS"));
`, "HELLO WORLD hello world", "Hello|World",
		"6 true true", "Hello World H", "pad ababab", "Hello MiniJS")
}

func TestTemplateLiterals(t *testing.T) {
	wantLogs(t, `
const rate = 30;
const n = 1000;
console.log(`+"`streaming ${n} messages at ${rate}Hz = ${n / rate} seconds`"+`);
`, "streaming 1000 messages at 30Hz = 33.333333333333336 seconds")
}

func TestClasses(t *testing.T) {
	wantLogs(t, `
class Device {
  constructor(id) { this.id = id; }
  describe() { return "device:" + this.id; }
  static kind() { return "generic"; }
}
class Camera extends Device {
  capture() { return this.describe() + ":frame"; }
}
const cam = new Camera("c1");
console.log(cam.id, cam.capture(), Device.kind());
console.log(cam instanceof Camera);
`, "c1 device:c1:frame generic", "true")
}

func TestConstructorFunctionPrototype(t *testing.T) {
	// the prototype-chain reflective idiom (what CodeQL handles, §6.1)
	wantLogs(t, `
function Sensor(id) { this.id = id; }
Sensor.prototype.read = function() { return "reading:" + this.id; };
const s = new Sensor("s9");
console.log(s.read());
`, "reading:s9")
}

func TestThisBinding(t *testing.T) {
	wantLogs(t, `
const obj = {
  name: "gadget",
  label() { return "I am " + this.name; }
};
console.log(obj.label());
const arrowCtx = {
  name: "outer",
  make() { return () => this.name; }
};
console.log(arrowCtx.make()());
`, "I am gadget", "outer")
}

func TestFunctionCallApplyBind(t *testing.T) {
	wantLogs(t, `
function greet(greeting) { return greeting + ", " + this.name; }
const who = { name: "ada" };
console.log(greet.call(who, "hi"));
console.log(greet.apply(who, ["yo"]));
const bound = greet.bind(who);
console.log(bound("hey"));
`, "hi, ada", "yo, ada", "hey, ada")
}

func TestPromisesAndAwait(t *testing.T) {
	wantLogs(t, `
async function fetchData() {
  return new Promise((resolve, reject) => { resolve("payload"); });
}
async function main() {
  const v = await fetchData();
  console.log("got", v);
  const w = await Promise.resolve(42);
  console.log(w);
}
main();
new Promise((resolve) => resolve("chained")).then(v => console.log("then:", v));
`, "got payload", "42", "then: chained")
}

func TestPromiseRejection(t *testing.T) {
	wantLogs(t, `
new Promise((resolve, reject) => reject("bad"))
  .then(v => console.log("ok", v))
  .catch(e => console.log("err", e));
`, "err bad")
}

func TestJSONBuiltins(t *testing.T) {
	wantLogs(t, `
const o = JSON.parse('{"a": 1, "items": ["x", "y"], "flag": true}');
console.log(o.a, o.items[1], o.flag);
console.log(JSON.stringify({ b: 2, a: [1, null] }));
`, "1 y true", `{"a":[1,null],"b":2}`)
}

func TestJSONParseErrors(t *testing.T) {
	ip := New()
	prog := parser.MustParse("t.js", `JSON.parse("{bad json");`)
	if err := ip.Run(prog); err == nil {
		t.Fatal("expected throw")
	}
}

func TestMathAndNumbers(t *testing.T) {
	wantLogs(t, `
console.log(Math.floor(3.7), Math.ceil(3.2), Math.abs(-4), Math.max(1, 9, 5));
console.log(parseInt("42px"), parseFloat("3.5kg"), isNaN(parseInt("zz")));
console.log((3.14159).toFixed(2));
console.log(Number("17") + Number(true));
`, "3 4 4 9", "42 3.5 true", "3.14", "18")
}

func TestObjectNamespace(t *testing.T) {
	wantLogs(t, `
const o = { x: 1, y: 2 };
console.log(Object.keys(o).join(","));
console.log(Object.values(o).join(","));
const merged = Object.assign({}, o, { z: 3 });
console.log(JSON.stringify(merged));
console.log(Array.isArray([1]), Array.isArray("no"));
`, "x,y", "1,2", `{"x":1,"y":2,"z":3}`, "true false")
}

func TestTypeofAndUnary(t *testing.T) {
	wantLogs(t, `
console.log(typeof 1, typeof "s", typeof true, typeof undefined, typeof null);
console.log(typeof {}, typeof [], typeof (() => 1));
console.log(typeof neverDeclared);
console.log(!0, -"5", +true, ~3);
`, "number string boolean undefined object",
		"object object function", "undefined", "true -5 1 -4")
}

func TestUpdateAndCompoundAssign(t *testing.T) {
	wantLogs(t, `
let i = 5;
console.log(i++, i, ++i, i--);
let s = "a";
s += "b";
let n = 10;
n *= 3; n -= 5; n /= 5;
console.log(s, n);
const o = { count: 0 };
o.count += 7;
console.log(o.count);
`, "5 6 7 7", "ab 5", "7")
}

func TestImplicitGlobalAssignment(t *testing.T) {
	wantLogs(t, `
function setup() { leaked = "visible"; }
setup();
console.log(leaked);
`, "visible")
}

func TestConstReassignFails(t *testing.T) {
	ip := New()
	prog := parser.MustParse("t.js", "const c = 1; c = 2;")
	if err := ip.Run(prog); err == nil {
		t.Fatal("expected const assignment error")
	}
}

func TestUndefinedVariableError(t *testing.T) {
	ip := New()
	prog := parser.MustParse("t.js", "console.log(nope);")
	err := ip.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v", err)
	}
}

func TestNullPropertyAccessThrows(t *testing.T) {
	wantLogs(t, `
try {
  const x = null;
  console.log(x.prop);
} catch (e) { console.log("caught:", e.name); }
`, "caught: TypeError")
}

func TestStepBudget(t *testing.T) {
	ip := New()
	ip.MaxSteps = 10_000
	prog := parser.MustParse("t.js", "while (true) { }")
	err := ip.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("err = %v", err)
	}
}

// TestStepBudgetPerEntry: MaxSteps bounds one host entry, not the
// interpreter's lifetime. With a budget of about three messages, twenty
// messages all run, while an unbounded loop inside one message and a
// handler that re-emits to itself forever both still trip.
func TestStepBudgetPerEntry(t *testing.T) {
	for _, engine := range Engines {
		ip := New()
		ip.Engine = engine
		src := ip.newEmitter("Test")
		ip.Globals.Define("src", src, false)
		prog := parser.MustParse("t.js", `
src.on("data", function (n) { let s = 0; for (let i = 0; i < 50; i++) { s = s + i * n; } });
src.on("spin", function () { while (true) { } });
src.on("again", function () { src.emit("again"); });
`)
		resolve.Resolve(prog)
		if err := ip.Run(prog); err != nil {
			t.Fatal(err)
		}
		before := ip.Steps()
		if err := ip.Emit(src, "data", 1.0); err != nil {
			t.Fatal(err)
		}
		ip.MaxSteps = 3 * (ip.Steps() - before)
		for i := 0; i < 20; i++ {
			if err := ip.Emit(src, "data", float64(i)); err != nil {
				t.Fatalf("%v: message %d: %v", engine, i, err)
			}
		}
		if ip.Steps() <= ip.MaxSteps {
			t.Fatalf("%v: Steps() = %d is not cumulative", engine, ip.Steps())
		}
		for _, ev := range []string{"spin", "again"} {
			if err := ip.Emit(src, ev); err == nil || !strings.Contains(err.Error(), "step budget") {
				t.Fatalf("%v: %s: err = %v", engine, ev, err)
			}
		}
	}
}

func TestSequencingDeterminism(t *testing.T) {
	src := `
let out = [];
for (let i = 0; i < 20; i++) out.push(Math.random());
console.log(out.length);
console.log(Date.now() < Date.now());
`
	a := logs(t, src)
	b := logs(t, src)
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatal("runs differ")
	}
	if a[1] != "true" {
		t.Fatal("Date.now should be monotonic")
	}
}

// Property: interpreting a generated arithmetic expression matches Go's
// evaluation of the same expression.
func TestQuickArithAgreement(t *testing.T) {
	f := func(a, b, c int16) bool {
		x, y, z := float64(a), float64(b), float64(c)
		src := "console.log(" +
			formatNumber(x) + " + " + formatNumber(y) + " * " + formatNumber(z) +
			" - (" + formatNumber(x) + " - " + formatNumber(z) + "));"
		ip := New()
		prog, err := parser.Parse("q.js", src)
		if err != nil {
			return false
		}
		if err := ip.Run(prog); err != nil {
			return false
		}
		want := formatNumber(x + y*z - (x - z))
		return len(ip.ConsoleOut) == 1 && ip.ConsoleOut[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: array push/pop behaves like a stack.
func TestQuickArrayStack(t *testing.T) {
	f := func(vals []int8) bool {
		if len(vals) > 30 {
			vals = vals[:30]
		}
		var b strings.Builder
		b.WriteString("const s = [];\n")
		for _, v := range vals {
			b.WriteString("s.push(" + formatNumber(float64(v)) + ");\n")
		}
		b.WriteString("let out = [];\nwhile (s.length > 0) out.push(s.pop());\nconsole.log(out.join(','));")
		ip := New()
		prog, err := parser.Parse("q.js", b.String())
		if err != nil {
			return false
		}
		if err := ip.Run(prog); err != nil {
			return false
		}
		var want []string
		for i := len(vals) - 1; i >= 0; i-- {
			want = append(want, formatNumber(float64(vals[i])))
		}
		return ip.ConsoleOut[0] == strings.Join(want, ",")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
