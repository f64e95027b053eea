package interp

import (
	"testing"

	"turnstile/internal/parser"
	"turnstile/internal/resolve"
)

// Go-benchmark twins of the harness microbench workloads, for profiling
// the VM dispatch loop against the slot-env tree-walker in isolation
// (`go test -bench VM -cpuprofile ...`). The authoritative speedup
// numbers live in BENCH_vm.json via `turnstile-bench -benchvm`.

const benchIdentSrc = `
function spin(n) {
  let a = 1, b = 2, c = 3, d = 4;
  let s = 0;
  for (let i = 0; i < n; i = i + 1) {
    s = s + a + b - c + d + i;
    a = b;
    b = c;
    c = d;
    d = (s % 7) + 1;
  }
  return s;
}
var out = 0;
for (let r = 0; r < 4; r = r + 1) {
  out = out + spin(400);
}
`

const benchCallSrc = `
function add(a, b) { return a + b; }
function mul(a, b) { return a * b; }
var counter = {
  n: 0,
  step: function (d) { this.n = this.n + d; return this.n; }
};
function work(n) {
  let s = 0;
  for (let i = 0; i < n; i = i + 1) {
    s = add(s, mul(i, 3));
    s = add(s, counter.step(1));
  }
  return s;
}
var out = 0;
for (let r = 0; r < 3; r = r + 1) {
  out = out + work(300);
}
`

func benchRun(b *testing.B, src string, engine Engine) {
	b.Helper()
	prog, err := parser.Parse("bench.js", src)
	if err != nil {
		b.Fatal(err)
	}
	resolve.Resolve(prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip := New()
		ip.Engine = engine
		if err := ip.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMIdentHeavy(b *testing.B)     { benchRun(b, benchIdentSrc, EngineVM) }
func BenchmarkWalkerIdentHeavy(b *testing.B) { benchRun(b, benchIdentSrc, EngineWalker) }
func BenchmarkVMCallHeavy(b *testing.B)      { benchRun(b, benchCallSrc, EngineVM) }
func BenchmarkWalkerCallHeavy(b *testing.B)  { benchRun(b, benchCallSrc, EngineWalker) }
