package dispatch

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// Sharded is the conservative-PDES engine that the simulation drives
// through core.ShardRunner. RunShards runs fn(0) on the calling goroutine
// and hands shards 1..n−1 to a fixed pool of n−1 worker goroutines, one
// per shard for the engine's lifetime (goroutines, not pinned to cores).
// Within a call each shard touches only its own agents, so the phase is
// race-free without per-agent locking. Between phases the simulation runs
// sequentially; the RunShards barrier is the synchronization point of the
// PDES recipe. The simulation runs any phase or span with fewer than two
// busy shards on its own goroutine, so a RunShards call is paid only when
// the work is spread over shards.
//
// The engine also serves the plain Engine interface (lock-step loops,
// Config.NoShards A/B runs) by chunking Sweep calls across the shards in
// contiguous ascending-ID blocks — deterministic because sweep callbacks
// only touch per-agent state.
type Sharded struct {
	shards int
	jobs   []chan func(int) // jobs[i] feeds shard i+1's worker
	wg     sync.WaitGroup
	once   sync.Once
}

// NewSharded creates the engine with one worker per shard beyond the first;
// the caller runs shard 0. A single shard therefore degenerates to inline
// execution on the calling goroutine — the full sharded runtime
// (mailboxes, barriers) with zero dispatch overhead, which is the
// sharded:1 leg of the equivalence suite.
func NewSharded(shards int) *Sharded {
	if shards < 1 {
		panic(fmt.Sprintf("dispatch: sharded engine needs >= 1 shard, got %d", shards))
	}
	e := &Sharded{shards: shards, jobs: make([]chan func(int), shards-1)}
	for i := range e.jobs {
		e.jobs[i] = make(chan func(int), 1)
		go e.worker(i + 1)
	}
	return e
}

func (e *Sharded) worker(w int) {
	for fn := range e.jobs[w-1] {
		fn(w)
		e.wg.Done()
	}
}

// ShardCount reports the number of shards.
func (e *Sharded) ShardCount() int { return e.shards }

// RunShards runs fn(shard) once per shard concurrently and waits for all
// of them — the barrier of the conservative synchronization protocol. The
// caller runs shard 0 itself while the workers run the rest.
func (e *Sharded) RunShards(fn func(shard int)) {
	e.wg.Add(len(e.jobs))
	for _, job := range e.jobs {
		job <- fn
	}
	fn(0)
	e.wg.Wait()
}

// Bind is a no-op: shard ownership lives in the simulation's assignment
// map, not in per-agent engine state.
func (e *Sharded) Bind(agents []core.Agent) {}

// Sweep applies fn to the active agents by splitting them into one
// contiguous block per shard. Blocks preserve ascending-ID order and fn
// only touches per-agent state, so results are independent of the
// interleaving.
func (e *Sharded) Sweep(active []core.Agent, fn func(core.Agent)) {
	n := len(active)
	if n == 0 {
		return
	}
	if e.shards == 1 || n == 1 {
		for _, a := range active {
			fn(a)
		}
		return
	}
	e.RunShards(func(w int) {
		lo, hi := w*n/e.shards, (w+1)*n/e.shards
		for _, a := range active[lo:hi] {
			fn(a)
		}
	})
}

// Shutdown stops the workers. Idempotent; the engine must not be used
// afterwards.
func (e *Sharded) Shutdown() {
	e.once.Do(func() {
		for i := range e.jobs {
			close(e.jobs[i])
		}
	})
}

var _ core.ShardRunner = (*Sharded)(nil)
