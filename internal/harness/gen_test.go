package harness

import "testing"

// TestGenCorpusAcceptance is the PR's acceptance gate verbatim: 200
// generated apps at seed 1 score with zero missed must-catch flows and
// zero false positives on sanctioned flows, across every stratum.
func TestGenCorpusAcceptance(t *testing.T) {
	res, err := RunGenCorpus(GenOptions{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed != len(res.Apps) || res.FN != 0 || res.FP != 0 {
		t.Fatalf("generated corpus not clean: passed %d/%d, FN=%d FP=%d\n%s",
			res.Passed, len(res.Apps), res.FN, res.FP, RenderGen(res))
	}
	if res.TP == 0 {
		t.Fatal("generated corpus caught zero flows — ground truth is vacuous")
	}
	if got := len(res.Rows); got != 7 {
		t.Fatalf("expected all 7 strata populated, got %d rows", got)
	}
}

// TestGenCorpusSeedSweep keeps the population clean across a spread of
// corpus seeds, not just the pinned acceptance seed.
func TestGenCorpusSeedSweep(t *testing.T) {
	for _, seed := range []uint64{0, 2, 7, 42, 12345} {
		res, err := RunGenCorpus(GenOptions{N: 70, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Passed != len(res.Apps) {
			t.Fatalf("seed %d: passed %d/%d\n%s", seed, res.Passed, len(res.Apps), RenderGen(res))
		}
	}
}

// TestGenCorpusDeterministic: the rendered report is byte-identical
// regardless of worker count — sequential, default, and an oversubscribed
// pool all produce the same bytes, so reports compare byte for byte.
func TestGenCorpusDeterministic(t *testing.T) {
	render := func(parallel int) string {
		res, err := RunGenCorpus(GenOptions{N: 56, Seed: 3, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return RenderGen(res)
	}
	seq := render(1)
	for _, p := range []int{0, 8} {
		if got := render(p); got != seq {
			t.Fatalf("report diverges between -parallel 1 and -parallel %d:\n%s",
				p, firstDiffContext(seq, got))
		}
	}
}
