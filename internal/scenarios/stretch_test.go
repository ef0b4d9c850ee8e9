package scenarios

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
)

// TestStretchBarrierDrop is the headline guarantee of window stretching:
// on the fine-step day-night scenario with per-tick Poisson polls (the
// worst case for the classic one-barrier-per-window loop), spans must cut
// global barriers by at least 5x while reproducing the NoStretch and
// sequential digests bit for bit. In practice the drop is ~3 orders of
// magnitude — spans run straight to the next collector boundary — but the
// test pins only the acceptance floor so slower machines with fewer
// stretching opportunities still pass.
func TestStretchBarrierDrop(t *testing.T) {
	run := func(noStretch bool) *DayNightResult {
		t.Helper()
		res, err := RunDayNight(DayNightConfig{
			Seed: 42, Hours: 1, Engine: dispatch.NewSharded(1),
			LoopFlags: experiment.LoopFlags{NoThinning: true, NoStretch: noStretch},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on := run(false)
	off := run(true)

	if on.Result.Stats.WindowsStretched == 0 {
		t.Fatal("stretching never engaged; the test pins nothing")
	}
	if off.Result.Stats.WindowsStretched != 0 {
		t.Errorf("NoStretch run stretched %d windows, want 0", off.Result.Stats.WindowsStretched)
	}
	if on.Result.Stats.Barriers == 0 || off.Result.Stats.Barriers == 0 {
		t.Fatalf("barrier counters empty: on=%d off=%d", on.Result.Stats.Barriers, off.Result.Stats.Barriers)
	}
	if ratio := float64(off.Result.Stats.Barriers) / float64(on.Result.Stats.Barriers); ratio < 5 {
		t.Errorf("barriers dropped only %.1fx (on=%d off=%d), want >= 5x",
			ratio, on.Result.Stats.Barriers, off.Result.Stats.Barriers)
	}
	if len(on.Result.Stats.ShardStretch) == 0 {
		t.Error("stretched run reported no per-shard stretch counters")
	}

	// Stretching must not change a single bit of what the run computed.
	seq, err := RunDayNight(DayNightConfig{Seed: 42, Hours: 1, LoopFlags: experiment.LoopFlags{NoThinning: true}})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := on.Result.Digest(), off.Result.Digest(); a != b {
		t.Errorf("stretched digest diverged from NoStretch:\n%s\n%s", a, b)
	}
	if a, b := on.Result.Digest(), seq.Result.Digest(); a != b {
		t.Errorf("stretched digest diverged from sequential loop:\n%s\n%s", a, b)
	}
}

// TestMailboxDueTimeSafety is the lookahead-safety property test: every
// cross-shard mailbox message carries a WAN-delayed due time, and the
// receiving shard must never apply one at a tick earlier than its
// committed safe horizon. The apply path panics on a violation, so the
// test's job is to prove the property was actually exercised — the
// consolidation platform pushes thousands of cross-DC cascade hops through
// the mailboxes, and with the per-shard lookahead installed a share of them
// lands mid-span through the shard inboxes (WindowsStretched > 0 despite
// live cross-DC traffic) — and that the observed slack never went negative.
// Every shard count must reproduce the sequential and NoCrossStretch
// digests bit for bit: mid-span delivery is a scheduling change, never a
// results change.
func TestMailboxDueTimeSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("mailbox safety property skipped in -short")
	}
	run := func(eng core.Engine, noCross bool) *CaseStudy {
		t.Helper()
		cs, err := NewConsolidation(CaseConfig{
			Step: 0.01, Seed: 7, Scale: 0.1, StartHour: 3, EndHour: 4,
			Engine: eng, LoopFlags: experiment.LoopFlags{NoCrossStretch: noCross},
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.Run()
		return cs
	}
	ref := run(&core.SequentialEngine{}, false).Result.Digest()

	cs := run(dispatch.NewSharded(4), false)
	applied, minSlack, ok := cs.Sim.MailboxAudit()
	if !ok {
		t.Fatal("no cross-shard mailbox traffic; the property was never exercised")
	}
	if applied == 0 {
		t.Fatal("mailbox audit reports zero applied messages")
	}
	if minSlack < 0 {
		t.Errorf("a mailbox message was applied %d ticks before its receiver's safe horizon", -minSlack)
	}
	if st := cs.Result.Stats; st.WindowsStretched == 0 {
		t.Error("no window stretched under live cross-DC traffic; mid-span delivery never engaged")
	} else if st.MailboxApplied != applied || st.MailboxMinSlack != int64(minSlack) {
		t.Errorf("RunStats mailbox mirror (%d, %d) diverged from MailboxAudit (%d, %d)",
			st.MailboxApplied, st.MailboxMinSlack, applied, minSlack)
	}
	t.Logf("mailbox audit: %d messages applied, minimum slack %d ticks, %d windows stretched",
		applied, minSlack, cs.Result.Stats.WindowsStretched)

	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("digest-sharded-%d", n), func(t *testing.T) {
			if got := run(dispatch.NewSharded(n), false).Result.Digest(); got != ref {
				t.Errorf("mid-span delivery diverged from sequential loop:\n%s\n%s", ref, got)
			}
		})
	}
	t.Run("digest-sharded-4-nocross", func(t *testing.T) {
		cs := run(dispatch.NewSharded(4), true)
		if got := cs.Result.Digest(); got != ref {
			t.Errorf("NoCrossStretch digest diverged from sequential loop:\n%s\n%s", ref, got)
		}
	})
}

// TestMailboxAuditContract pins the exact shape of Simulation.MailboxAudit
// across the engine matrix: (0, 0, false) whenever the sharded runtime is
// off — sequential engines and plain-loop runs of a sharded engine — and
// (applied > 0,
// minSlack >= 0, true) whenever it is on and traffic crossed shards,
// with or without window stretching. A shard that received no traffic must
// never drag the minimum to its zero-initialized counter.
func TestMailboxAuditContract(t *testing.T) {
	if testing.Short() {
		t.Skip("mailbox audit contract skipped in -short")
	}
	run := func(eng core.Engine, noFF, noStretch bool) *CaseStudy {
		t.Helper()
		cs, err := NewConsolidation(CaseConfig{
			Step: 0.01, Seed: 7, Scale: 0.1, StartHour: 3, EndHour: 4,
			Engine: eng, LoopFlags: experiment.LoopFlags{NoFastForward: noFF, NoStretch: noStretch},
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.Run()
		return cs
	}
	for _, tc := range []struct {
		name   string
		eng    core.Engine
		noFF   bool
		wantOK bool
	}{
		{"sequential", &core.SequentialEngine{}, false, false},
		{"sharded-plain", dispatch.NewSharded(4), true, false},
		{"stretched", dispatch.NewSharded(4), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := run(tc.eng, tc.noFF, false)
			applied, minSlack, ok := cs.Sim.MailboxAudit()
			if ok != tc.wantOK {
				t.Fatalf("MailboxAudit ok = %v, want %v", ok, tc.wantOK)
			}
			if !ok {
				if applied != 0 || minSlack != 0 {
					t.Errorf("off shape = (%d, %d, false), want (0, 0, false)", applied, minSlack)
				}
				if st := cs.Result.Stats; st.MailboxApplied != 0 || st.MailboxMinSlack != 0 {
					t.Errorf("RunStats mailbox fields (%d, %d) nonzero with audit off",
						st.MailboxApplied, st.MailboxMinSlack)
				}
				return
			}
			if applied == 0 {
				t.Error("ok=true with zero applied messages")
			}
			if minSlack < 0 {
				t.Errorf("minimum slack %d ticks is negative", minSlack)
			}
		})
	}
	// NoStretch: every cross-shard hand-off still flows through the
	// barrier-drain mailboxes, applied at its posting tick — audit on.
	t.Run("nostretch", func(t *testing.T) {
		cs := run(dispatch.NewSharded(4), false, true)
		applied, minSlack, ok := cs.Sim.MailboxAudit()
		if !ok || applied == 0 {
			t.Fatalf("NoStretch audit = (%d, %d, %v), want applied traffic", applied, minSlack, ok)
		}
		if minSlack < 0 {
			t.Errorf("minimum slack %d ticks is negative", minSlack)
		}
	})
}

// TestChaosStretchBarriers pins the fault-schedule contract under window
// stretching: the fault controller is a global source, so its next
// transition tick bounds every span and forces a global barrier exactly on
// schedule — injections and recoveries land at their configured instants,
// never absorbed into a stretched span, and the faulted run stays
// bit-identical to its NoStretch twin. The chaos workload's cascades run
// cross-DC (EU clients against the NA master), so any stretching here is
// cross-flow stretching: spans form inside the WAN lookahead while global
// tokens are in flight, and the fault ticks still barrier exactly.
func TestChaosStretchBarriers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos stretch leg skipped in -short")
	}
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
		ir := res.Faults.Injections[0]
		if ir.InjectedAt != 120 || ir.RecoveredAt != 240 {
			t.Fatalf("fault transitions at %v/%v, want exactly 120/240 — a stretched span crossed a fault tick",
				ir.InjectedAt, ir.RecoveredAt)
		}
		return res
	}
	mkEngine := experiment.WithEngine(func() core.Engine { return dispatch.NewSharded(3) })
	on := run(mkEngine)
	off := run(mkEngine, experiment.WithLoopFlags(experiment.LoopFlags{NoStretch: true}))
	if a, b := on.Digest(), off.Digest(); a != b {
		t.Errorf("faulted run diverged between stretch and NoStretch:\n%s\n%s", a, b)
	}
	if on.Stats.WindowsStretched == 0 {
		t.Error("no window stretched under the cross-DC chaos workload; the cross-flow leg pins nothing")
	}
	if on.Stats.MailboxApplied > 0 && on.Stats.MailboxMinSlack < 0 {
		t.Errorf("faulted run applied a mailbox message %d ticks past its due instant", -on.Stats.MailboxMinSlack)
	}
	if off.Stats.WindowsStretched != 0 {
		t.Errorf("NoStretch run stretched %d windows, want 0", off.Stats.WindowsStretched)
	}
}

// TestAutoShards pins the "sharded:auto" resolution rule on both surfaces:
// the helper itself and a compiled document.
func TestAutoShards(t *testing.T) {
	if n := experiment.AutoShards(1); n != 1 {
		t.Errorf("AutoShards(1) = %d, want 1", n)
	}
	if n := experiment.AutoShards(0); n < 1 {
		t.Errorf("AutoShards(0) = %d, want >= 1", n)
	}
	for _, dcs := range []int{1, 2, 7, 64} {
		n := experiment.AutoShards(dcs)
		if n < 1 || n > dcs && dcs >= 1 {
			t.Errorf("AutoShards(%d) = %d out of [1, %d]", dcs, n, dcs)
		}
	}
	if _, err := experiment.ParseEngine("sharded:auto"); err != nil {
		t.Errorf("ParseEngine(sharded:auto): %v", err)
	}
	if _, err := experiment.ParseEngine("sharded:nope"); err == nil {
		t.Error("ParseEngine(sharded:nope) accepted a malformed count")
	} else if want := "sharded:auto"; !strings.Contains(err.Error(), want) {
		t.Errorf("shard-count error %q does not mention %q", err, want)
	}
}
