package core

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"repro/internal/queueing"
)

// TestFlowRecyclingFollowOn chains operations the way SeriesLauncher does:
// each completion callback launches the next op of its series. The
// follow-on must get a flow of its own — the completing flow returns to
// the pool only after its callback — and recycling must not change any
// result: the run matches, bit for bit, one whose pools are emptied before
// every launch and expansion, so every flow and token is fresh.
func TestFlowRecyclingFollowOn(t *testing.T) {
	const series, length = 3, 4
	run := func(recycle bool) (string, int) {
		s := NewSimulation(Config{Step: 0.01, Seed: 1})
		cpu := newTestQueueAgent(s, "cpu", 2, 100)
		dl := NewDelayLine(s, "think")
		noRecycle := func() {
			if !recycle {
				s.pools = msgPools{}
			}
		}
		var log []string
		arenas := map[string]*Stage{} // the stage arena of each op's latest step
		distinct := map[*Stage]bool{}
		var chain func(sr, i int)
		chain = func(sr, i int) {
			name := fmt.Sprintf("S%d.%d", sr, i)
			s.StartOp(OpRun{
				Name: name, DC: "NA", NumSteps: 2,
				Expand: func(step int, plans []MessagePlan, stages []Stage) ([]MessagePlan, []Stage) {
					noRecycle()
					for m := 0; m <= (sr+i+step)%3; m++ {
						n := len(stages)
						stages = append(stages,
							Stage{Queue: cpu, Demand: float64(10 + 7*m + sr)},
							Stage{Queue: dl, Delay: 0.05 * float64(step+1)})
						plans = append(plans, MessagePlan{Stages: stages[n:len(stages):len(stages)]})
					}
					arenas[name] = &stages[0]
					distinct[&stages[0]] = true
					return plans, stages
				},
				OnComplete: func(now, dur float64) {
					noRecycle()
					log = append(log, fmt.Sprintf("%s %.17g %.17g", name, now, dur))
					if i+1 == length {
						return
					}
					chain(sr, i+1)
					next := fmt.Sprintf("S%d.%d", sr, i+1)
					if arenas[next] == arenas[name] {
						t.Errorf("follow-on %s expanded into the arena of %s, whose callback is still running", next, name)
					}
				},
			})
		}
		for sr := 0; sr < series; sr++ {
			sr := sr
			s.AddSource(&timedSource{at: 0.03 * float64(sr), launch: func(*Simulation) {
				noRecycle()
				chain(sr, 0)
			}})
		}
		if err := s.RunUntilIdle(60); err != nil {
			t.Fatal(err)
		}
		if len(log) != series*length {
			t.Fatalf("%d of %d operations completed", len(log), series*length)
		}
		return strings.Join(log, "\n"), len(distinct)
	}
	pooled, arenas := run(true)
	fresh, freshArenas := run(false)
	if pooled != fresh {
		t.Errorf("recycling changed the run:\n%s\nwant\n%s", pooled, fresh)
	}
	if freshArenas < series*length {
		t.Errorf("reference run shared arenas: %d for %d ops", freshArenas, series*length)
	}
	if arenas >= freshArenas {
		t.Errorf("pooled run used %d arenas, the fresh run %d: no flow was recycled", arenas, freshArenas)
	}
}

// TestDelayHeapPopsInTotalOrder checks the typed delay-line heap against a
// sort by (expiry, seq), with many expiry ties, across interleaved pushes
// and pops.
func TestDelayHeapPopsInTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	var h delayHeap
	var live []delayEntry
	seq := uint64(0)
	for round := 0; round < 200; round++ {
		for n := rng.IntN(6); n > 0; n-- {
			seq++
			e := delayEntry{expiry: float64(rng.IntN(8)), seq: seq, task: &queueing.Task{ID: seq}}
			h.push(e)
			live = append(live, e)
		}
		sort.Slice(live, func(i, j int) bool { return live[i].before(live[j]) })
		for n := rng.IntN(5); n > 0 && len(live) > 0; n-- {
			got := h.pop()
			if got != live[0] {
				t.Fatalf("round %d: popped (%v, %d), want (%v, %d)", round, got.expiry, got.seq, live[0].expiry, live[0].seq)
			}
			live = live[1:]
		}
		if len(h) != len(live) {
			t.Fatalf("round %d: heap holds %d entries, want %d", round, len(h), len(live))
		}
	}
}
