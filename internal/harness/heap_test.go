package harness

import (
	"runtime"
	"testing"

	"turnstile/internal/corpus"
)

// TestRunnerHeapBounded: a long-running instrumented app keeps a flat live
// heap, because the labels of a message's values die with the values. The
// loop drops each message's sink writes as the benchmark's stream workload
// does, so what is left to grow is the tracker's state.
func TestRunnerHeapBounded(t *testing.T) {
	prep, err := PrepareApp(corpus.ByName(corpus.All(), "sensor-logger"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Runner{prep.Selective, prep.Exhaustive} {
		next := 0
		heapAt := func(msgs int) uint64 {
			for ; next < msgs; next++ {
				if err := r.Process(next); err != nil {
					t.Fatalf("%s: message %d: %v", r.Mode, next, err)
				}
				r.IP.IO.Reset()
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		at1k := heapAt(1_000)
		at10k := heapAt(10_000)
		t.Logf("%s: live heap %d B at message 1,000, %d B at 10,000", r.Mode, at1k, at10k)
		if float64(at10k) > 1.1*float64(at1k) {
			t.Errorf("%s: live heap grew %.0f%% between messages 1,000 and 10,000",
				r.Mode, 100*(float64(at10k)/float64(at1k)-1))
		}
	}
}
