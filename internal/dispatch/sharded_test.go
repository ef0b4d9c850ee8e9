package dispatch

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

func TestNewShardedPanicsOnZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSharded(0) did not panic")
		}
	}()
	NewSharded(0)
}

// TestShardedRunShardsCoversEveryShard checks the barrier contract: every
// shard index runs exactly once per RunShards call, and the call does not
// return until all of them finished.
func TestShardedRunShardsCoversEveryShard(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		e := NewSharded(shards)
		hits := make([]atomic.Int64, shards)
		const rounds = 50
		for r := 0; r < rounds; r++ {
			e.RunShards(func(w int) { hits[w].Add(1) })
		}
		for w := range hits {
			if got := hits[w].Load(); got != rounds {
				t.Errorf("shards=%d: shard %d ran %d times, want %d", shards, w, got, rounds)
			}
		}
		e.Shutdown()
	}
}

// TestShardedSweepChunksAreAPartition checks the plain-Engine fallback:
// Sweep must apply fn to every active agent exactly once, for active-set
// sizes around the contiguous-block arithmetic's edge cases.
func TestShardedSweepChunksAreAPartition(t *testing.T) {
	for _, shards := range []int{1, 3, 4} {
		e := NewSharded(shards)
		for _, n := range []int{0, 1, 2, 3, 4, 5, 17, 100} {
			agents := make([]*fakeAgent, n)
			active := make([]core.Agent, n)
			for i := range agents {
				agents[i] = &fakeAgent{}
				active[i] = agents[i]
			}
			e.Sweep(active, func(a core.Agent) { a.(*fakeAgent).steps.Add(1) })
			for i, a := range agents {
				if got := a.steps.Load(); got != 1 {
					t.Fatalf("shards=%d n=%d: agent %d stepped %d times, want 1", shards, n, i, got)
				}
			}
		}
		e.Shutdown()
	}
}

// TestShardedShutdownIdempotent double-closes must not panic, and a
// 1-shard engine (no workers) must shut down cleanly too.
func TestShardedShutdownIdempotent(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e := NewSharded(shards)
		e.RunShards(func(int) {})
		e.Shutdown()
		e.Shutdown()
	}
}

// TestShardedRunShardsPublishesWrites checks the memory side of the
// barrier: each shard writes its own slot of a plain slice — shard 0 on
// the caller, the rest on workers — and the caller reads every slot after
// RunShards returns. Under -race this fails if the barrier does not order
// the workers' writes before the caller's reads.
func TestShardedRunShardsPublishesWrites(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		e := NewSharded(shards)
		slots := make([]int, shards)
		for r := 1; r <= 50; r++ {
			e.RunShards(func(w int) { slots[w] = r*100 + w })
			for w, v := range slots {
				if v != r*100+w {
					t.Fatalf("shards=%d round %d: slot %d = %d, want %d", shards, r, w, v, r*100+w)
				}
			}
		}
		e.Shutdown()
	}
}
