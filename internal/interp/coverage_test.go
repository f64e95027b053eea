package interp

import (
	"math"
	"strings"
	"testing"

	"turnstile/internal/parser"
)

// Tests for the corners that day-to-day application code rarely touches:
// coercion tables, member access on every value kind, string/array method
// edge cases, Promise combinators, JSON escapes, and module loading.

func TestToStringAllKinds(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{undef, "undefined"},
		{null, "null"},
		{true, "true"},
		{false, "false"},
		{3.0, "3"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "Infinity"},
		{math.Inf(-1), "-Infinity"},
		{1e20, "1e+20"},
		{"s", "s"},
		{NewArray(1.0, null, "x"), "1,,x"},
		{NewObject(), "[object Object]"},
	}
	for _, c := range cases {
		if got := ToString(c.v); got != c.want {
			t.Errorf("ToString(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	fn := NewFunction("f", nil, nil)
	if !strings.Contains(ToString(fn), "function f") {
		t.Errorf("function ToString = %q", ToString(fn))
	}
	hf := NewHostFunc("h", nil)
	if !strings.Contains(ToString(hf), "native code") {
		t.Errorf("hostfunc ToString = %q", ToString(hf))
	}
}

func TestToNumberTable(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
	}{
		{"42", 42}, {" 3.5 ", 3.5}, {"", 0}, {true, 1}, {false, 0}, {null, 0},
	}
	for _, c := range cases {
		if got := ToNumber(c.v); got != c.want {
			t.Errorf("ToNumber(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	for _, nan := range []Value{"abc", undef, NewObject()} {
		if !math.IsNaN(ToNumber(nan)) {
			t.Errorf("ToNumber(%v) should be NaN", nan)
		}
	}
}

func TestLooseEqualsTable(t *testing.T) {
	eq := []struct{ a, b Value }{
		{1.0, "1"}, {true, 1.0}, {false, ""}, {null, undef}, {undef, undef},
	}
	for _, c := range eq {
		if !LooseEquals(c.a, c.b) {
			t.Errorf("%v == %v should hold", c.a, c.b)
		}
	}
	neq := []struct{ a, b Value }{
		{null, 0.0}, {undef, 0.0}, {"a", "b"}, {NewObject(), NewObject()},
	}
	for _, c := range neq {
		if LooseEquals(c.a, c.b) {
			t.Errorf("%v == %v should not hold", c.a, c.b)
		}
	}
	o := NewObject()
	if !LooseEquals(o, o) || !StrictEquals(o, o) {
		t.Error("object identity equality")
	}
}

func TestInspectCircularAndNested(t *testing.T) {
	o := NewObject()
	o.Set("name", "root")
	arr := NewArray(o, "leaf")
	o.Set("self", o)
	o.Set("list", arr)
	out := Inspect(o)
	if !strings.Contains(out, "[Circular]") {
		t.Fatalf("circular marker missing: %q", out)
	}
	if !strings.Contains(out, "'leaf'") {
		t.Fatalf("nested string should be quoted: %q", out)
	}
}

func TestObjectHelpers(t *testing.T) {
	o := NewObject()
	o.Set("a", 1.0)
	o.Set("b", 2.0)
	o.Set("a", 3.0) // overwrite keeps order
	if o.Len() != 2 {
		t.Fatalf("len = %d", o.Len())
	}
	if keys := o.Keys(); keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v", keys)
	}
	o.Delete("a")
	o.Delete("ghost")
	if o.Len() != 1 || o.Keys()[0] != "b" {
		t.Fatalf("after delete: %v", o.Keys())
	}
}

func TestStringMethodEdges(t *testing.T) {
	wantLogs(t, `
console.log("abc".charCodeAt(1), "abc".charCodeAt(9));
console.log("abc".lastIndexOf("b"), "a,b,,c".split(",").length);
console.log("xyz".substr(1), "xyz".substr(-2), "xyz".substr(0, 2));
console.log("5".padStart(3, "0"), "ab".padStart(1));
console.log("abcabc".replaceAll("a", "-"), "abcabc".replace("a", "-"));
console.log("hello".endsWith("lo"), "hello".includes("ell"));
console.log("a".concat("b", 1, true));
console.log("abc".slice(-2), "abc".slice(1, -1));
console.log("hi".toString(), (42).toString(), (1.5).toFixed(2));
console.log("needle in haystack".match("needle") !== null);
`,
		"98 NaN", "1 4", "yz yz xy", "005 ab", "-bc-bc -bcabc",
		"true true", "ab1true", "bc b", "hi 42 1.50", "true")
}

func TestStringRepeatRangeError(t *testing.T) {
	wantLogs(t, `
try { "x".repeat(-1); } catch (e) { console.log(e.name); }
`, "RangeError")
}

func TestArrayMethodEdges(t *testing.T) {
	wantLogs(t, `
const a = [1, 2, 3, 4];
console.log(a.splice(1, 2).join(","), a.join(","));
a.splice(1, 0, 9, 8);
console.log(a.join(","));
console.log([3, 1, 2].sort().join(","));
console.log([].pop(), [].shift());
console.log([1, 2].unshift(0), [0, 1, 2].reverse().join(","));
try { [].reduce((x, y) => x + y); } catch (e) { console.log("caught", e.name); }
console.log([1, [2, 3], 4].flat().join(","));
console.log([1, 2, 3].reduce((acc, v) => acc + v));
const arr2 = [5, 6];
arr2.length = 1;
console.log(arr2.join(","));
`,
		"2,3 1,4", "1,9,8,4", "1,2,3", "undefined undefined", "3 2,1,0",
		"caught TypeError", "1,2,3,4", "6", "5")
}

func TestPromiseCombinators(t *testing.T) {
	wantLogs(t, `
Promise.all([Promise.resolve(1), 2, Promise.resolve(3)]).then(vs => console.log(vs.join("+")));
Promise.reject("nope").catch(e => console.log("caught", e));
Promise.resolve("v").finally(() => console.log("cleanup")).then(v => console.log("still", v));
new Promise((res, rej) => { throw new Error("in executor"); }).catch(e => console.log("exec:", e.message));
`,
		"1+2+3", "caught nope", "cleanup", "still v", "exec: in executor")
}

func TestThenOnRejectedWithHandler(t *testing.T) {
	wantLogs(t, `
Promise.reject("r").then(v => console.log("ok"), e => console.log("err", e));
`, "err r")
}

func TestJSONEscapes(t *testing.T) {
	wantLogs(t, `
const o = JSON.parse('{"s": "a\\nb\\t\\u0041", "n": -1.5e2, "deep": {"x": [true, false, null]}}');
console.log(o.s.length, o.n, o.deep.x.length);
console.log(JSON.stringify("he\"llo"));
console.log(JSON.stringify({ f: function() {}, u: undefined, n: 1 }));
const circ = { a: 1 };
circ.self = circ;
console.log(JSON.stringify(circ));
`,
		"5 -150 3", `"he\"llo"`, `{"n":1}`, `{"a":1,"self":null}`)
}

func TestJSONParseErrorCases(t *testing.T) {
	for _, bad := range []string{`{`, `[1,`, `{"a"}`, `{"a":}`, `"unterminated`, `tru`, `12x34extra`} {
		ip := New()
		prog := parser.MustParse("t.js", "JSON.parse("+quoteForJS(bad)+");")
		if err := ip.Run(prog); err == nil {
			t.Errorf("JSON.parse(%q) should throw", bad)
		}
	}
}

func quoteForJS(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return `"` + s + `"`
}

func TestGetSetMemberKinds(t *testing.T) {
	wantLogs(t, `
const s = "hello";
console.log(s.length, s[1], s[99]);
const a = [10, 20];
console.log(a.length, a[0], a["1"], a[5]);
function f() {}
f.custom = 7;
console.log(f.name, f.custom, typeof f.prototype);
const hf = console.log;
console.log(hf.name);
const num = 5;
num.x = 1;
console.log(num.x);
`,
		"5 e undefined", "2 10 20 undefined", "f 7 object", "log", "undefined")
}

func TestSetMemberOnNullThrows(t *testing.T) {
	wantLogs(t, `
try { null.x = 1; } catch (e) { console.log("set:", e.name); }
try { undefined.y; } catch (e) { console.log("get:", e.name); }
`, "set: TypeError", "get: TypeError")
}

func TestBinaryOpCorners(t *testing.T) {
	wantLogs(t, `
console.log([1, 2] + "!", ({}) + "");
console.log(5 & 3, 5 | 3, 5 ^ 3, 1 << 4, 256 >> 4, 256 >>> 4, ~5);
console.log("b" in { b: 1 }, "z" in { b: 1 }, "x" in "str");
console.log(10 % 3, 2 ** -1);
console.log("a" < "b", "b" <= "a", 3 >= "3");
`,
		"1,2! [object Object]", "1 7 6 16 16 16 -6",
		"true false false", "1 0.5", "true false true")
}

func TestLogicalAssignOps(t *testing.T) {
	wantLogs(t, `
let a = null; a ??= 5;
let b = 0; b ||= 7;
let c = 1; c &&= 9;
let d = 3; d ??= 99;
console.log(a, b, c, d);
`, "5 7 9 3")
}

func TestForOfObjectWithHostElems(t *testing.T) {
	ip := New()
	container := NewObject()
	container.Host = NewArray("p", "q")
	ip.Globals.Define("container", container, false)
	prog := parser.MustParse("t.js", `
let out = "";
for (const v of container) out += v;
console.log(out, container.length);
`)
	if err := ip.Run(prog); err != nil {
		t.Fatal(err)
	}
	if ip.ConsoleOut[0] != "pq 2" {
		t.Fatalf("out = %v", ip.ConsoleOut)
	}
}

func TestForOfNonIterableThrows(t *testing.T) {
	ip := New()
	prog := parser.MustParse("t.js", "for (const v of 42) { }")
	if err := ip.Run(prog); err == nil {
		t.Fatal("expected error")
	}
}

func TestSteps(t *testing.T) {
	ip := run(t, "let x = 0; for (let i = 0; i < 100; i++) x += i;")
	if ip.Steps() < 100 {
		t.Fatalf("steps = %d", ip.Steps())
	}
}

func TestIORecorderReset(t *testing.T) {
	ip := run(t, `require("fs").writeFileSync("/a", "x");`)
	if len(ip.IO.Writes) != 1 {
		t.Fatal("write missing")
	}
	ip.IO.Reset()
	if len(ip.IO.Writes) != 0 {
		t.Fatal("reset failed")
	}
}

func TestRunModuleRestoresBindings(t *testing.T) {
	ip := New()
	first := parser.MustParse("first.js", `module.exports = { tag: "first" };`)
	exp1, err := ip.RunModule(first)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := exp1.(*Object).Get("tag"); ToString(v) != "first" {
		t.Fatalf("exports = %v", exp1)
	}
	// the global module binding is restored after RunModule
	second := parser.MustParse("second.js", `exports.tag = "second";`)
	exp2, err := ip.RunModule(second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := exp2.(*Object).Get("tag"); ToString(v) != "second" {
		t.Fatalf("exports2 = %v", exp2)
	}
}

func TestLocalLoader(t *testing.T) {
	ip := New()
	helper := parser.MustParse("helper.js", `module.exports = { mul: x => x * 3 };`)
	ip.SetLocalLoader(func(name string) (Value, bool, error) {
		if name == "helper.js" {
			exp, err := ip.RunModule(helper)
			if err != nil {
				return nil, false, err
			}
			return exp, true, nil
		}
		return nil, false, nil
	})
	prog := parser.MustParse("main.js", `
const h = require("./helper");
const again = require("./helper");
console.log(h.mul(4), h === again);
`)
	if err := ip.Run(prog); err != nil {
		t.Fatal(err)
	}
	if ip.ConsoleOut[0] != "12 true" {
		t.Fatalf("out = %v", ip.ConsoleOut)
	}
	// unknown local module still errors
	bad := parser.MustParse("bad.js", `require("./missing");`)
	if err := ip.Run(bad); err == nil {
		t.Fatal("expected missing module error")
	}
}

func TestCompoundAssignTargets(t *testing.T) {
	wantLogs(t, `
const o = { n: 10 };
o.n += 5; o.n -= 1; o.n *= 2;
console.log(o.n);
const a = [1, 2, 3];
a[0] **= 3;
a[1] <<= 2;
console.log(a.join(","));
const m = { k: "x" };
m["k"] += "y";
console.log(m.k);
let obj = { flag: null };
obj.flag ??= "set";
obj.flag ??= "ignored";
console.log(obj.flag);
`, "28", "1,8,3", "xy", "set")
}

func TestDeleteComputedAndExpressions(t *testing.T) {
	wantLogs(t, `
const o = { a: 1, b: 2 };
const key = "a";
console.log(delete o[key], o.a, delete (1 + 2));
`, "true undefined true")
}

func TestSwitchDefaultFallthrough(t *testing.T) {
	wantLogs(t, `
function f(x) {
  let out = "";
  switch (x) {
    case 1: out += "one";
    default: out += "-dflt";
    case 9: out += "-nine";
  }
  return out;
}
console.log(f(1), f(5), f(9));
`, "one-dflt-nine -dflt-nine -nine")
}

func TestReturnInsideFinally(t *testing.T) {
	wantLogs(t, `
function f() {
  try { return "try"; } finally { console.log("cleanup"); }
}
console.log(f());
function g() {
  try { throw "x"; } catch (e) { return "caught"; } finally { console.log("g-cleanup"); }
}
console.log(g());
`, "cleanup", "try", "g-cleanup", "caught")
}
