package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/queueing"
	"repro/internal/simtime"
)

// TestCalendarHeapOrdering drives the indexed heap through inserts,
// decrease/increase rekeys and removals, checking the head always reports
// the minimum with ties broken by AgentID.
func TestCalendarHeapOrdering(t *testing.T) {
	var c calendar
	c.grow(64)
	rng := rand.New(rand.NewPCG(1, 2))
	keys := make(map[AgentID]simtime.Tick)
	for id := AgentID(0); id < 64; id++ {
		k := simtime.Tick(rng.Int64N(1000))
		c.set(id, k)
		keys[id] = k
	}
	// Rekey half the entries in both directions, remove a few.
	for id := AgentID(0); id < 64; id += 2 {
		k := simtime.Tick(rng.Int64N(1000))
		c.set(id, k)
		keys[id] = k
	}
	for id := AgentID(5); id < 64; id += 13 {
		c.remove(id)
		delete(keys, id)
	}
	if c.len() != len(keys) {
		t.Fatalf("heap size %d, want %d", c.len(), len(keys))
	}
	prevKey, prevID := simtime.Tick(-1), AgentID(-1)
	for c.len() > 0 {
		k := c.minKey()
		id := c.popMin()
		if want, ok := keys[id]; !ok || want != k {
			t.Fatalf("popped (%d, %d), want key %d", id, k, keys[id])
		}
		if k < prevKey || (k == prevKey && id < prevID) {
			t.Fatalf("pop order violated: (%d, %d) after (%d, %d)", k, id, prevKey, prevID)
		}
		prevKey, prevID = k, id
		delete(keys, id)
		if c.contains(id) {
			t.Fatalf("agent %d still present after pop", id)
		}
	}
	// Removing an absent entry is a no-op.
	c.remove(3)
}

// TestSrcDueTickBoundaries pins the poll-schedule conversion: the due tick
// is the first tick landing at or after the NextPoll instant in the exact
// tick-time arithmetic, instants at or before now mean per-tick polling,
// and +Inf parks the source.
func TestSrcDueTickBoundaries(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	cases := []struct {
		p    float64
		now  simtime.Tick
		want simtime.Tick
	}{
		{math.Inf(1), 0, neverTick},
		{0, 0, 1},     // "poll me now" => next tick
		{0.05, 0, 5},  // exactly on a tick boundary
		{0.051, 0, 6}, // just past a boundary
		{0.049999999, 0, 5},
		{1.00, 50, 100},  // from a later origin
		{0.5001, 50, 51}, // due within the next tick
	}
	for _, tc := range cases {
		if got := s.srcDueTick(tc.p, tc.now); got != tc.want {
			t.Errorf("srcDueTick(%v, %d) = %d, want %d", tc.p, tc.now, got, tc.want)
		}
		// Contract: every tick strictly before the due tick falls strictly
		// before p, so its skipped poll is a no-op by the Source contract.
		got := s.srcDueTick(tc.p, tc.now)
		if got != neverTick {
			for n := tc.now + 1; n < got; n++ {
				if s.clock.SecondsAt(n) >= tc.p {
					t.Errorf("tick %d lands at %v, at or past p=%v", n, s.clock.SecondsAt(n), tc.p)
					break
				}
			}
		}
	}
}

// countingSource reports a fixed-interval schedule and counts its polls.
type countingSource struct {
	interval float64
	next     float64
	polls    int
}

func (cs *countingSource) Poll(s *Simulation, now float64) {
	cs.polls++
	for now >= cs.next {
		cs.next += cs.interval
	}
}
func (cs *countingSource) NextPoll(now float64) float64 { return cs.next }

// vetoAgent is a pinned agent with the conservative default horizon (0):
// while registered it vetoes every fast-forward jump.
type vetoAgent struct{ AgentBase }

func (v *vetoAgent) Step(dt float64)                 {}
func (v *vetoAgent) Enqueue(t *queueing.Task)        {}
func (v *vetoAgent) Drain(fn func(t *queueing.Task)) {}
func (v *vetoAgent) Idle() bool                      { return true }

// TestCalendarSkipsNotDuePolls checks the poll scheduler: a source with a
// 50 ms schedule under a 10 ms step must be polled on roughly every fifth
// tick by the calendar loop, while the plain loop polls it every tick. A
// pinned default-horizon agent pins the clock to single steps, so the
// difference comes from poll scheduling alone, not from jumps.
func TestCalendarSkipsNotDuePolls(t *testing.T) {
	run := func(noFF bool) int {
		s := NewSimulation(Config{Step: 0.01, Seed: 1, NoFastForward: noFF})
		v := &vetoAgent{}
		v.InitAgent(s.NextAgentID(), "veto")
		s.AddAgent(v)
		v.Pin()
		src := &countingSource{interval: 0.05}
		s.AddSource(src)
		s.RunFor(10) // 1000 ticks
		if j, _ := s.FastForwardStats(); j != 0 {
			t.Fatalf("pinned run took %d jumps", j)
		}
		return src.polls
	}
	plain := run(true)
	cal := run(false)
	if plain != 1000 {
		t.Errorf("plain loop polled %d times, want 1000", plain)
	}
	if cal < 198 || cal > 202 {
		t.Errorf("calendar loop polled %d times, want ~200 (every 5th tick)", cal)
	}
}

// TestCalendarRekeysOnEnqueue checks the invalidation path end to end at
// the core layer: work enqueued on an agent with a far-future calendar
// entry must pull its event earlier, not wait for the stale key.
func TestCalendarRekeysOnEnqueue(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, CollectEvery: 10000, Seed: 1})
	dl := NewDelayLine(s, "line")
	enq := func(delay float64) {
		s.StartOp(OpRun{
			Name: "D", DC: "NA", NumSteps: 1,
			Expand: FixedPlans([]MessagePlan{{Stages: []Stage{{Queue: dl, Delay: delay}}}}),
		})
	}
	// A long delay parks the line's calendar entry far in the future...
	s.AddSource(&timedSource{at: 0, launch: func(*Simulation) { enq(50) }})
	// ...then a short delay enqueued later must complete on time anyway.
	s.AddSource(&timedSource{at: 1, launch: func(*Simulation) { enq(0.5) }})
	s.RunFor(60)
	if s.CompletedOps() != 2 {
		t.Fatalf("completed %d ops, want 2", s.CompletedOps())
	}
	ts := s.Responses.Series("D", "NA").T
	if math.Abs(ts[0]-1.51) > 0.02 {
		t.Errorf("short delay completed at %v, want ~1.51 (stale calendar entry?)", ts[0])
	}
	if math.Abs(ts[1]-50.01) > 0.02 {
		t.Errorf("long delay completed at %v, want ~50.01", ts[1])
	}
	if _, skipped := s.FastForwardStats(); skipped < 4000 {
		t.Errorf("skipped only %d ticks; the schedule holds ~48 s of quiet", skipped)
	}
}

// orderAgent records the drain order of completions across agents.
type orderAgent struct {
	AgentBase
	order *[]AgentID
	queue []*queueing.Task
}

func (o *orderAgent) Enqueue(t *queueing.Task) {
	o.MarkDirty()
	o.queue = append(o.queue, t)
}
func (o *orderAgent) Step(dt float64) {
	for _, t := range o.queue {
		o.BufferDone(t)
	}
	o.queue = o.queue[:0]
}
func (o *orderAgent) Idle() bool { return len(o.queue) == 0 }

// Drain records the agent's position in the sequential drain phase; the
// buffered tasks are not flow tokens, so the flow callback is bypassed.
func (o *orderAgent) Drain(fn func(*queueing.Task)) {
	o.AgentBase.Drain(func(*queueing.Task) {
		*o.order = append(*o.order, o.ID())
	})
}

// TestActivationOrderIndependence pins the sort-skip bookkeeping: agents
// activated in descending ID order must still drain in ascending ID order,
// and ticks with an unchanged active set (which skip the sort and the
// sweep re-slice) must keep that order.
func TestActivationOrderIndependence(t *testing.T) {
	s := NewSimulation(Config{Step: 0.01, Seed: 1})
	var order []AgentID
	agents := make([]*orderAgent, 4)
	for i := range agents {
		a := &orderAgent{order: &order}
		a.InitAgent(s.NextAgentID(), "oa")
		s.AddAgent(a)
		agents[i] = a
	}
	// Activate in descending ID order within one sequential phase.
	for i := len(agents) - 1; i >= 0; i-- {
		tk := &queueing.Task{ID: uint64(i)}
		agents[i].Enqueue(tk)
	}
	s.Tick()
	if len(order) != 4 {
		t.Fatalf("drained %d completions, want 4", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("drain order not ascending: %v", order)
		}
	}
	// A second tick with the unchanged (now empty) active set must not
	// disturb anything — the sort/re-slice skip path.
	order = order[:0]
	s.Tick()
	if len(order) != 0 {
		t.Fatalf("idle tick drained %v", order)
	}
}
