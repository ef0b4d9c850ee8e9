package scenarios

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
)

// shardCounts is the equivalence matrix of the sharded engine. Counts
// above a scenario's DC population are deliberately included: the core
// runtime tolerates empty shards (the per-DC partition just leaves them
// idle), and only the declarative surfaces reject such configurations.
var shardCounts = []int{1, 2, 4, 8}

// TestShardedEquivalenceValidation pins the sharded engine's determinism
// contract on the validation scenario: every shard count must reproduce
// the sequential calendar loop's digest — run statistics (including jump
// counts), every response sample and every collector sample, bit for bit.
func TestShardedEquivalenceValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence matrix skipped in -short")
	}
	ref := runValidationWith(t, &core.SequentialEngine{}).Result.Digest()
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("sharded-%d", n), func(t *testing.T) {
			got := runValidationWith(t, dispatch.NewSharded(n)).Result.Digest()
			if got != ref {
				t.Errorf("digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
		})
	}
	// Plain loop on the sharded engine: no sharded runtime, the engine's
	// workers serve plain Sweep calls every tick — the oracle must match
	// the reference bits through Sharded.Sweep too.
	t.Run("sharded-4-plain", func(t *testing.T) {
		res, err := RunValidation(ValidationConfig{
			Experiment: 1, Seed: 42, Engine: dispatch.NewSharded(4),
			LaunchFor: 120, RunFor: 150, SteadyStart: 30, SteadyEnd: 120,
			LoopFlags: experiment.LoopFlags{NoFastForward: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Result.Digest(); got != ref {
			t.Errorf("plain-loop digest diverged from sequential loop:\n%s\n%s", ref, got)
		}
	})
	// NoStretch A/B: sharded runtime with a global barrier on every window —
	// window stretching must not have changed a bit relative to this baseline.
	t.Run("sharded-4-nostretch", func(t *testing.T) {
		res, err := RunValidation(ValidationConfig{
			Experiment: 1, Seed: 42, Engine: dispatch.NewSharded(4),
			LaunchFor: 120, RunFor: 150, SteadyStart: 30, SteadyEnd: 120,
			LoopFlags: experiment.LoopFlags{NoStretch: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Result.Digest(); got != ref {
			t.Errorf("NoStretch digest diverged from sequential loop:\n%s\n%s", ref, got)
		}
	})
}

// TestShardedEquivalenceConsolidation covers the seven-DC consolidation
// platform — the scenario where the per-DC partition genuinely spreads
// agents across shards and cross-DC cascades cross shard boundaries
// through the drain mailboxes.
func TestShardedEquivalenceConsolidation(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence matrix skipped in -short")
	}
	run := func(eng core.Engine, noStretch bool) string {
		t.Helper()
		cs, err := NewConsolidation(CaseConfig{
			Step: 0.01, Seed: 7, Scale: 0.1, StartHour: 3, EndHour: 4, Engine: eng,
			LoopFlags: experiment.LoopFlags{NoStretch: noStretch},
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.Run()
		return cs.Result.Digest()
	}
	ref := run(&core.SequentialEngine{}, false)
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("sharded-%d", n), func(t *testing.T) {
			if got := run(dispatch.NewSharded(n), false); got != ref {
				t.Errorf("digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
		})
	}
	t.Run("sharded-4-nostretch", func(t *testing.T) {
		if got := run(dispatch.NewSharded(4), true); got != ref {
			t.Errorf("NoStretch digest diverged from sequential loop:\n%s\n%s", ref, got)
		}
	})
}

// TestShardedEquivalenceDayNight covers the thinned day-night client
// workload: thinning changes the RNG draw sequence relative to per-tick
// polling but is engine-independent, so sharded digests must still match
// the sequential run under identical flags.
func TestShardedEquivalenceDayNight(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence matrix skipped in -short")
	}
	run := func(eng core.Engine, noStretch bool) string {
		t.Helper()
		res, err := RunDayNight(DayNightConfig{
			Seed: 42, Hours: 6, Engine: eng,
			LoopFlags: experiment.LoopFlags{NoStretch: noStretch},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Result.Digest()
	}
	ref := run(&core.SequentialEngine{}, false)
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("sharded-%d", n), func(t *testing.T) {
			if got := run(dispatch.NewSharded(n), false); got != ref {
				t.Errorf("digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
		})
		// The day-night scenario is where stretching bites hardest, so the
		// NoStretch baseline runs at every shard count, not just one.
		t.Run(fmt.Sprintf("sharded-%d-nostretch", n), func(t *testing.T) {
			if got := run(dispatch.NewSharded(n), true); got != ref {
				t.Errorf("NoStretch digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
		})
	}
}

// TestShardedEquivalenceChaos pins the barrier behavior of fault ticks:
// the fault controller polls in the sequential phase of the exact window
// landing on its transition tick, so injections and recoveries land at
// their scheduled instants under every shard count, and the whole faulted
// run stays bit-identical to the sequential loop.
func TestShardedEquivalenceChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded equivalence matrix skipped in -short")
	}
	run := func(extra ...experiment.Option) string {
		t.Helper()
		e, err := chaosExperiment(extra...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		ir := res.Faults.Injections[0]
		if ir.InjectedAt != 120 || ir.RecoveredAt != 240 {
			t.Fatalf("fault transitions at %v/%v, want 120/240 — a shard window crossed a fault tick",
				ir.InjectedAt, ir.RecoveredAt)
		}
		return res.Digest()
	}
	ref := run()
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("sharded-%d", n), func(t *testing.T) {
			n := n
			got := run(experiment.WithEngine(func() core.Engine { return dispatch.NewSharded(n) }))
			if got != ref {
				t.Errorf("digest diverged from sequential loop:\n%s\n%s", ref, got)
			}
		})
	}
	t.Run("sharded-4-nostretch", func(t *testing.T) {
		got := run(
			experiment.WithEngine(func() core.Engine { return dispatch.NewSharded(4) }),
			experiment.WithLoopFlags(experiment.LoopFlags{NoStretch: true}),
		)
		if got != ref {
			t.Errorf("NoStretch digest diverged from sequential loop:\n%s\n%s", ref, got)
		}
	})
}

// TestShardedSingleDCRunsOnCaller pins the cheap-barrier rule on a
// one-DC platform: the per-DC partition puts every agent on one shard, so
// no phase or span ever has two busy shards and the sharded:2 run must
// hand nothing to the shard workers — while still paying its barriers and
// reproducing the sequential digest bit for bit.
func TestShardedSingleDCRunsOnCaller(t *testing.T) {
	ref := runValidationWith(t, &core.SequentialEngine{}).Result
	got := runValidationWith(t, dispatch.NewSharded(2)).Result
	if a, b := ref.Digest(), got.Digest(); a != b {
		t.Errorf("digest diverged from sequential loop:\n%s\n%s", a, b)
	}
	if got.Stats.Barriers == 0 {
		t.Error("sharded:2 run paid no barrier; the sharded runtime did not engage")
	}
	if got.Stats.Handoffs != 0 {
		t.Errorf("single-DC run handed %d phases to the shard workers, want 0", got.Stats.Handoffs)
	}
}

// TestShardedChaosHandoffs pins the other side of the rule on the 3-DC
// chaos platform at two shards: work spread over both shards is handed to
// the workers, one-shard work is not, so 0 < Handoffs < Barriers, and the
// digest is the sequential one.
func TestShardedChaosHandoffs(t *testing.T) {
	run := func(extra ...experiment.Option) *experiment.Result {
		t.Helper()
		e, err := chaosExperiment(extra...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run()
	got := run(experiment.WithEngine(func() core.Engine { return dispatch.NewSharded(2) }))
	if a, b := ref.Digest(), got.Digest(); a != b {
		t.Errorf("digest diverged from sequential loop:\n%s\n%s", a, b)
	}
	if h, b := got.Stats.Handoffs, got.Stats.Barriers; h == 0 || h >= b {
		t.Errorf("handoffs %d, barriers %d: want 0 < handoffs < barriers", h, b)
	}
	t.Logf("barriers %d, handoffs %d, stretched %d", got.Stats.Barriers, got.Stats.Handoffs, got.Stats.WindowsStretched)
	if ref.Stats.Handoffs != 0 {
		t.Errorf("sequential run reports %d handoffs", ref.Stats.Handoffs)
	}
}
