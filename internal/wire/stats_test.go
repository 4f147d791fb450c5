package wire

import (
	"testing"

	"probe/internal/obs"
)

// TestStatCountersNameEachCounterOnce: the Done layout names a counter
// at most once, so no counter travels in two slots, and names none of
// the retired ones but in the retired slots.
func TestStatCountersNameEachCounterOnce(t *testing.T) {
	slot := map[obs.Counter]int{}
	for i, k := range StatCounters {
		if j, ok := slot[k]; ok {
			t.Fatalf("slots %d and %d both carry %v", j, i, k)
		}
		slot[k] = i
	}
	for _, k := range []obs.Counter{obs.Shards, obs.ReplicatedItems, obs.BigMinSkips} {
		if i, ok := slot[k]; ok && i != StatShards && i != StatReplicatedItems {
			t.Errorf("live slot %d carries the retired counter %v", i, k)
		}
	}
}
