package core

import (
	"fmt"
	"testing"

	"repro/internal/queueing"
)

// benchJumpTicks measures one jump-sizing call in a dense period: n
// background agents hold far-future work (active, but never dirty) while a
// pinned default-horizon churner forces a single-step every iteration. The
// sizer reads the calendar head and the cached source schedule, so its
// cost must stay flat as n grows tenfold.
func benchJumpTicks(b *testing.B, n int) {
	b.Helper()
	s := NewSimulation(Config{Step: 0.01, CollectEvery: 1 << 30, Seed: 1})
	for i := 0; i < n; i++ {
		dl := NewDelayLine(s, fmt.Sprintf("bg-%d", i))
		dl.Enqueue(&queueing.Task{ID: uint64(i), Delay: 1e6})
	}
	churn := &vetoAgent{}
	churn.InitAgent(s.NextAgentID(), "churn")
	s.AddAgent(churn)
	churn.Pin()
	s.RunFor(0.05) // settle: materialize the calendar
	now := s.clock.Now()
	limit := now + 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.jumpTicks(now, limit, s.srcMin, &s.cal)
	}
}

// BenchmarkQuietTicksDense reports the per-iteration scheduling cost of
// the calendar loop at 1x and 10x active-set size: the cost scales with
// the dirty agents (here: one churner), not with the active ones.
func BenchmarkQuietTicksDense(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("calendar-active-%d", n), func(b *testing.B) { benchJumpTicks(b, n) })
	}
}
