package core

import (
	"math"

	"repro/internal/queueing"
)

// DelayLine is a pseudo-agent that holds tasks for a fixed delay without
// contention. It models client-side time (think time, local rendering) and
// any stage where elapsed time matters but no shared resource is consumed.
// The delay is carried in Task.Delay, in seconds.
type DelayLine struct {
	AgentBase
	now  float64
	heap delayHeap
	seq  uint64
}

// NewDelayLine creates and registers a delay line with the simulation.
func NewDelayLine(sim *Simulation, name string) *DelayLine {
	d := &DelayLine{}
	d.InitAgent(sim.NextAgentID(), name)
	sim.AddAgent(d)
	return d
}

// Enqueue admits a task; it will complete after task.Delay seconds. The
// line's local clock only advances while it is active, which is safe: the
// expiry of every held task is relative to that same local clock. Sync
// first replays any ticks the bulk-dense loop deferred, so the local clock
// is current before the expiry is computed against it. The admission both
// activates the line and invalidates its calendar entry — the new expiry
// may precede the cached earliest one.
func (d *DelayLine) Enqueue(t *queueing.Task) {
	d.Sync()
	d.MarkDirty()
	d.seq++
	d.heap.push(delayEntry{expiry: d.now + t.Delay, seq: d.seq, task: t})
}

// Step advances local time and buffers expired tasks in expiry order (ties
// broken by admission order for determinism).
func (d *DelayLine) Step(dt float64) {
	d.now += dt
	for len(d.heap) > 0 && d.heap[0].expiry <= d.now+1e-12 {
		d.BufferDone(d.heap.pop().task)
	}
}

// StepN advances local time through n quiet ticks. The local clock must
// still accumulate tick by tick — expiries compare against it, so a single
// large addition would shift them by ulps — but when no expiry can fall in
// the window the per-tick heap inspection is elided.
func (d *DelayLine) StepN(n int, dt float64) {
	if len(d.heap) == 0 || d.heap[0].expiry-d.now > float64(n)*dt+1e-7 {
		now := d.now
		for i := 0; i < n; i++ {
			now += dt
		}
		d.now = now
		return
	}
	for i := 0; i < n; i++ {
		d.Step(dt)
	}
}

// Idle reports whether no tasks are waiting.
func (d *DelayLine) Idle() bool { return len(d.heap) == 0 }

// Horizon returns the time until the earliest held task expires, measured
// against the line's local clock — which is exactly the simulated time the
// line will accumulate across a fast-forward replay — or +Inf when empty.
func (d *DelayLine) Horizon() float64 {
	if len(d.heap) == 0 {
		return math.Inf(1)
	}
	return d.heap[0].expiry - d.now
}

type delayEntry struct {
	expiry float64
	seq    uint64
	task   *queueing.Task
}

// before is the heap order: earlier expiry first, admission order on ties.
// The order is total (seq is unique), so any correct heap pops entries in
// the same sequence.
func (e delayEntry) before(o delayEntry) bool {
	if e.expiry != o.expiry {
		return e.expiry < o.expiry
	}
	return e.seq < o.seq
}

// delayHeap is a binary min-heap of delay entries, typed so that pushes and
// pops move values instead of boxing each entry into an interface.
type delayHeap []delayEntry

func (h *delayHeap) push(e delayEntry) {
	q := append(*h, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *delayHeap) pop() delayEntry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = delayEntry{} // drop the task reference
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].before(q[m]) {
			m = r
		}
		if !q[m].before(q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}
