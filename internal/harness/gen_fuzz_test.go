package harness

import (
	"testing"

	"turnstile/internal/corpus"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
)

// FuzzGenCorpus drives the whole generate→deploy→pump→score pipeline from
// arbitrary (seed, stratum, size) coordinates: generation must never
// produce an inconsistent ground truth (in particular must-catch and
// must-allow stay disjoint), every generated app must deploy and run
// without panicking, and the scorer must never report an error on a
// well-formed coordinate.
func FuzzGenCorpus(f *testing.F) {
	f.Add(uint64(1), byte(0), byte(6))
	f.Add(uint64(0), byte(3), byte(0))
	f.Add(uint64(0xC0FFEE), byte(6), byte(12))
	f.Add(^uint64(0), byte(200), byte(255))
	f.Fuzz(func(t *testing.T, seed uint64, stratumByte, sizeByte byte) {
		names := corpus.GenStratumNames()
		stratum := names[int(stratumByte)%len(names)]
		app, err := corpus.Generate(stratum, seed, int(sizeByte))
		if err != nil {
			t.Fatalf("Generate(%s, %#x, %d): %v", stratum, seed, sizeByte, err)
		}
		if err := app.CheckConsistency(); err != nil {
			t.Fatalf("inconsistent ground truth: %v", err)
		}
		res := genOne(app, GenOptions{})
		if res.Err != "" {
			t.Fatalf("%s failed to deploy or run: %s", app.Name, res.Err)
		}
		if len(res.Missed) > 0 || len(res.Leaked) > 0 {
			t.Fatalf("%s scored dirty: missed %v, leaked %v", app.Name, res.Missed, res.Leaked)
		}
	})
}

// FuzzVMEquivalence is the differential fuzz target for the bytecode VM:
// any generated (seed, stratum, size) coordinate, deployed exhaustively
// with the VM and again on the tree-walker, must produce
// byte-identical observable records — sink traces, per-message errors,
// violations with full label text, and tracker statistics. A divergence
// here is a VM semantics bug by definition: the tree-walker is the
// oracle.
func FuzzVMEquivalence(f *testing.F) {
	f.Add(uint64(1), byte(0), byte(6))
	f.Add(uint64(0xC0FFEE), byte(3), byte(9))
	f.Add(uint64(42), byte(6), byte(0))
	f.Add(^uint64(0), byte(200), byte(255))
	f.Fuzz(func(t *testing.T, seed uint64, stratumByte, sizeByte byte) {
		names := corpus.GenStratumNames()
		stratum := names[int(stratumByte)%len(names)]
		app, err := corpus.Generate(stratum, seed, int(sizeByte))
		if err != nil {
			t.Fatalf("Generate(%s, %#x, %d): %v", stratum, seed, sizeByte, err)
		}
		base := genVariant{mode: instrument.Exhaustive}
		walker := base
		walker.engine = interp.EngineWalker
		vmSig := genRun(app, base, false)
		walkSig := genRun(app, walker, false)
		if vmSig != walkSig {
			t.Fatalf("%s (stratum %s, seed %#x): VM and tree-walker diverged:\n-- vm --\n%s\n-- walker --\n%s",
				app.Name, stratum, seed, vmSig, walkSig)
		}
	})
}
