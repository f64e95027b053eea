package dift

import (
	"runtime"
	"testing"

	"turnstile/internal/policy"
)

// liveHeap returns the bytes reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLabelsDieWithTheirValues: labels live on the values they describe,
// so labelling and deriving through 100,000 short-lived boxes leaves the
// tracker holding no more than it held after 1,000.
func TestLabelsDieWithTheirValues(t *testing.T) {
	tr := tracker(t, "a -> b")
	ls := policy.NewLabelSet("a")
	churn := func(n int) uint64 {
		for i := 0; i < n; i++ {
			tr.Derive(float64(i)+0.5, tr.Attach(float64(i), ls))
		}
		return liveHeap()
	}
	base := churn(1_000)
	after := churn(100_000)
	runtime.KeepAlive(tr)
	const slack = 256 << 10
	if after > base+slack {
		t.Fatalf("live heap grew from %d to %d bytes over 100,000 boxes (slack %d)", base, after, slack)
	}
}
