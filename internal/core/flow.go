package core

import (
	"fmt"

	"repro/internal/queueing"
	"repro/internal/simtime"
)

// Holder is a capacity that a stage occupies while it runs: a server's
// memory holding a message's working set (§3.4.2, Fig. 3-5).
// *hardware.Memory satisfies it.
type Holder interface {
	Acquire(bytes float64)
	Release(bytes float64)
}

// Stage is one hop of a message through the infrastructure: a piece of work
// performed by a single hardware agent (NIC transmit, link transit, CPU
// service, storage access) or a pure delay (client-side think/render time).
// Stages are produced by the topology router when it expands a cascade
// message into the agents along the route (§3.3.2).
//
// A stage is plain data — no closures — so a flow can expand every step
// into its own reusable stage arena without allocating.
type Stage struct {
	// Queue is the agent that serves this stage. A nil Queue makes the
	// stage instantaneous: its holds apply and the token advances within
	// the same interaction phase.
	Queue QueueAgent
	// Demand is the work amount in the target agent's units (cycles for
	// CPUs, bits for network elements, bytes for storage).
	Demand float64
	// Delay is a fixed latency in seconds, used by delay-line stages.
	Delay float64
	// Hold, when non-nil, is occupied across a run of stages: the stage
	// that starts the run calls Hold.Acquire(Acquire) when it starts, the
	// stage that ends it calls Hold.Release(Release) when it completes
	// (both in the sequential phase, or on the owning lane inside a
	// stretched span). A zero count skips its call, so one stage may
	// acquire, release, or both.
	Hold    Holder
	Acquire float64
	Release float64
}

// MessagePlan is a fully-expanded message of a cascade: the ordered stages
// it traverses from origin to destination holon.
type MessagePlan struct {
	Stages []Stage
}

// OpRun describes one operation instance to execute: a cascade of NumSteps
// sequential steps, each expanding into one or more messages that run in
// parallel (fork-join across messages of a step). Expansion is lazy — the
// router picks server instances when the step starts, reproducing the
// paper's run-time load balancing.
type OpRun struct {
	// Name of the operation type, e.g. "CAD OPEN".
	Name string
	// DC is the client's data center, used for response-time attribution.
	DC string
	// GaugeKey, when non-empty, increments the named simulation gauge for
	// the lifetime of the operation (concurrent-client accounting).
	// Launchers on the hot path should pre-intern the key and set Gauge
	// instead; GaugeKey is interned on every StartOp.
	GaugeKey string
	// Gauge is the interned form of GaugeKey (see Simulation.GaugeHandle);
	// zero means none. When both are set, Gauge wins.
	Gauge Gauge
	// NumSteps is the number of sequential steps in the cascade.
	NumSteps int
	// Expand appends the parallel messages of the given step (0-based) to
	// plans and returns the extended slice. Stages it builds go into the
	// stages arena it is handed — each plan a capacity-capped sub-slice of
	// it — and the extended arena is returned too. Both buffers belong to
	// the flow and are reset to length zero before every step, so the
	// plans of one step must not be retained past it; prebuilt plans may
	// be appended unchanged. An empty result completes the step
	// immediately.
	Expand func(step int, plans []MessagePlan, stages []Stage) ([]MessagePlan, []Stage)
	// OnComplete, when non-nil, runs in the sequential phase after the
	// operation finishes. now and dur are simulated seconds.
	OnComplete func(now, dur float64)
	// Silent suppresses response-time recording (used by warm-up traffic).
	Silent bool
	// Local declares that every stage of every message of this cascade
	// resolves to agents of the operation's own data center — no WAN hop,
	// no cross-DC holon. Builders set it (cascade.Instantiate proves it
	// from the binding: local site == master site); it is the license for
	// the stretched-span scheduler to run the flow entirely inside one
	// shard lane. A false value is always safe — it only forces the flow
	// onto the global (barriered) path.
	Local bool
}

// FixedPlans returns an OpRun.Expand for a cascade whose messages are built
// in advance: step i appends steps[i] unchanged. The plans are shared by
// every expansion, so their stages must not change once the op runs.
func FixedPlans(steps ...[]MessagePlan) func(int, []MessagePlan, []Stage) ([]MessagePlan, []Stage) {
	return func(step int, plans []MessagePlan, stages []Stage) ([]MessagePlan, []Stage) {
		return append(plans, steps[step]...), stages
	}
}

// Flow is an in-flight operation instance. global marks it cross-capable:
// a non-Local cascade (its messages may hop shards) or one carrying an
// OnComplete callback (a sequential-phase control transfer). Global flows
// execute their mid-chain stages on shard lanes like any other work, but
// their control points — step expansion, chain completion, the callback —
// run only in sequential phases; the span scheduler bounds every span so
// none of those can fire inside one.
//
// plans and stages are the flow's expansion buffers: OpRun.Expand appends
// each step's messages and their stages into them, and advanceFlow resets
// both to length zero before the next step — by then every token of the
// previous step has finished, so nothing references them. Flows are
// pooled with their buffers, so a warm flow expands without allocating.
type Flow struct {
	id          uint64
	op          OpRun
	step        int
	outstanding int
	start       float64
	global      bool

	plans  []MessagePlan
	stages []Stage
}

// token is one in-flight message of a flow traversing its stages. The
// embedded task is reused across stages to avoid per-stage allocation, and
// finished tokens return to a free list — message launch is the hottest
// allocation site of busy hours.
//
// The trailing fields exist for cross-capable (Flow.global) tokens under
// the sharded runtime: global marks the token registered in
// Simulation.crossToks at reg (swap-removed at tokenDone); home is the
// shard owning the queue the token currently resides on, maintained on
// every enqueue, so a lane advancing the token mid-span can tell a local
// hand-off from a cross-shard one; stageTick is the tick the task entered
// its current stage (the anchor for chain-completion bounds on queues
// whose per-task state is not readable, like a delay line's heap); parked,
// when non-zero, is the due tick of the inbox entry the token is waiting
// in — set by the mid-span cross-shard post, cleared when the entry
// applies.
type token struct {
	flow   *Flow
	stages []Stage
	idx    int
	task   queueing.Task

	global    bool
	home      int32
	reg       int32
	stageTick simtime.Tick
	parked    simtime.Tick
}

// msgPools holds the recycled flows and tokens of one execution context:
// the Simulation's for sequential phases, each laneState's for its
// stretched spans. A context only ever touches its own pools, so they need
// no locking; an object may be taken from one context's pool and returned
// to another's (a flow launched in a span and completed after it), which
// is safe because the object is not referenced anywhere while it sits in a
// pool.
type msgPools struct {
	toks  []*token
	flows []*Flow
}

// newToken pops a pooled token or allocates a fresh one.
func (p *msgPools) newToken() *token {
	if n := len(p.toks); n > 0 {
		tok := p.toks[n-1]
		p.toks[n-1] = nil
		p.toks = p.toks[:n-1]
		return tok
	}
	return &token{}
}

// freeToken resets a finished token and returns it to the pool. The caller
// guarantees no queue holds the embedded task anymore — a token only
// finishes when its final stage's completion has been drained.
func (p *msgPools) freeToken(tok *token) {
	*tok = token{}
	p.toks = append(p.toks, tok)
}

// newFlow pops a pooled flow (its expansion buffers empty but with their
// capacity) or allocates a fresh one.
func (p *msgPools) newFlow() *Flow {
	if n := len(p.flows); n > 0 {
		f := p.flows[n-1]
		p.flows[n-1] = nil
		p.flows = p.flows[:n-1]
		return f
	}
	return &Flow{}
}

// freeFlow resets a completed flow, keeping its expansion buffers, and
// returns it to the pool. The caller guarantees the flow has no live token
// and that its OnComplete callback has returned.
func (p *msgPools) freeFlow(f *Flow) {
	*f = Flow{plans: f.plans[:0], stages: f.stages[:0]}
	p.flows = append(p.flows, f)
}

// flowLane resolves the lane executing flows of the given data center
// during a stretched span, or nil outside spans. Every flow routed through
// here inside a span is Local (cross-capable flows branch on Flow.global
// before resolving a lane — a global flow's DC names where its client
// sits, not where its work runs), so the DC names both the lane that
// launched the flow and the only lane that can ever touch it.
func (s *Simulation) flowLane(dc string) *laneState {
	if s.sh == nil || !s.sh.inSpan {
		return nil
	}
	w, ok := s.sh.dcLane[dc]
	if !ok {
		panic(fmt.Sprintf("core: flow for unmapped data center %q inside a stretched span", dc))
	}
	return &s.sh.lanes[w]
}

// startOp validates and launches an operation instance. It is called by
// Simulation.StartOp in the sequential phase, or — for Local operations —
// from a shard lane inside a stretched span. It returns nothing: the flow
// goes back to a pool when it completes, so no caller may keep it.
func (s *Simulation) startOp(op OpRun) {
	if op.NumSteps <= 0 || op.Expand == nil {
		panic(fmt.Sprintf("core: operation %q needs NumSteps > 0 and an Expand function", op.Name))
	}
	if ln := s.flowLane(op.DC); ln != nil {
		// Lane path: only shard-confined flows may launch between barriers.
		// The span scheduler guarantees none of these fire by construction
		// (spans form only when no cross-DC work is possible); the panics
		// keep the invariant honest against future launchers.
		if !op.Local || op.OnComplete != nil {
			panic(fmt.Sprintf("core: operation %q is not shard-confined (Local=%v, OnComplete=%v) inside a stretched span",
				op.Name, op.Local, op.OnComplete != nil))
		}
		if op.Gauge == 0 && op.GaugeKey != "" {
			panic(fmt.Sprintf("core: operation %q launches with an un-interned gauge key %q inside a stretched span",
				op.Name, op.GaugeKey))
		}
		ln.nextFlowID++
		f := ln.pools.newFlow()
		f.id, f.op, f.step, f.start = ln.nextFlowID, op, -1, s.clock.SecondsAt(ln.tick)
		ln.flowDelta++
		s.AddGaugeBy(op.Gauge, 1)
		s.advanceFlow(f)
		return
	}
	if op.Gauge == 0 && op.GaugeKey != "" {
		op.Gauge = s.GaugeHandle(op.GaugeKey)
	}
	s.nextFlowID++
	f := s.pools.newFlow()
	f.id, f.op, f.step, f.start = s.nextFlowID, op, -1, s.clock.NowSeconds()
	f.global = !op.Local || op.OnComplete != nil
	s.activeFlows++
	if f.global {
		s.crossFlows++
	}
	s.AddGaugeBy(op.Gauge, 1)
	s.advanceFlow(f)
}

// advanceFlow moves the flow to its next step, launching the step's message
// tokens, or completes the flow when no steps remain. Steps that expand to
// zero messages complete immediately, so the loop continues until a step
// launches work or the flow ends.
//
// Step expansion is not lane-safe (route caching, load-balancer state, RNG
// draws), so a cross-capable flow only ever advances in sequential phases
// — the span scheduler guarantees it by ending every span strictly before
// any such flow's chain-completion bound, and the panic keeps the
// guarantee honest.
func (s *Simulation) advanceFlow(f *Flow) {
	var ln *laneState
	if f.global {
		if s.sh != nil && s.sh.inSpan {
			panic(fmt.Sprintf("core: cross-capable flow %d advanced inside a stretched span — chain-completion bound violated", f.id))
		}
	} else {
		ln = s.flowLane(f.op.DC)
	}
	for {
		f.step++
		if f.step >= f.op.NumSteps {
			s.completeFlow(f)
			return
		}
		// Every token of the previous step has finished, so the buffers
		// are free to refill.
		f.plans, f.stages = f.op.Expand(f.step, f.plans[:0], f.stages[:0])
		plans := f.plans
		if len(plans) == 0 {
			continue
		}
		f.outstanding = len(plans)
		for _, plan := range plans {
			var tok *token
			if ln != nil {
				tok = ln.pools.newToken()
				ln.nextTaskID++
				tok.task.ID = ln.nextTaskID
			} else {
				tok = s.pools.newToken()
				s.nextTaskID++
				tok.task.ID = s.nextTaskID
			}
			tok.flow = f
			tok.stages = plan.Stages
			tok.task.Payload = tok
			if f.global && s.sh != nil {
				// Register for the span scheduler's per-token guard.
				tok.global = true
				tok.reg = int32(len(s.crossToks))
				s.crossToks = append(s.crossToks, tok)
			}
			s.startStage(tok)
		}
		return
	}
}

// startStage begins the token's current stage, skipping instantaneous
// stages in place. When the token runs out of stages the parent flow's
// outstanding count drops and, at zero, the flow advances.
func (s *Simulation) startStage(tok *token) {
	for tok.idx < len(tok.stages) {
		st := &tok.stages[tok.idx]
		if st.Hold != nil && st.Acquire != 0 {
			st.Hold.Acquire(st.Acquire)
		}
		if st.Queue != nil {
			tok.task.Demand = st.Demand
			tok.task.Delay = st.Delay
			if sh := s.sh; sh != nil {
				// Sharded drain phase: post the hand-off to the target
				// shard's mailbox instead of enqueueing inline; the
				// barrier at the end of the drain applies every mailbox
				// shard-parallel with the exact sync/enqueue/activate
				// sequence below.
				if sh.deferring {
					sh.post(s, st.Queue, &tok.task)
					return
				}
				// Cross-capable token advancing mid-span: a hand-off to
				// another shard's agent parks in that shard's inbox, due
				// after the span ends (the WAN latency is the lookahead
				// that makes the due tick safe); a same-shard hand-off
				// proceeds inline on this lane.
				if sh.inSpan && tok.global {
					if sh.shard(st.Queue.ID()) != tok.home {
						sh.postInbox(s, st.Queue, tok)
						return
					}
				}
			}
			// Under the bulk-dense loop the target may be lazily stepped;
			// replay its deficit before the enqueue mutates its queues, so
			// the new work lands on state identical to the plain loop's.
			// Hardware agents also self-sync in Enqueue; routing through
			// here covers custom agents too.
			s.syncAgent(st.Queue.ID())
			st.Queue.Enqueue(&tok.task)
			// Join the active set so the engine sweeps this agent next
			// tick; hardware agents also self-activate in Enqueue, but
			// routing through here covers custom agents too.
			st.Queue.Base().MarkActive()
			if tok.global {
				// Maintain the span scheduler's view: where the token
				// lives and when it entered the stage.
				if sh := s.sh; sh != nil {
					tok.home = sh.shard(st.Queue.ID())
					if sh.inSpan {
						tok.stageTick = sh.lanes[tok.home].tick
					} else {
						tok.stageTick = s.clock.Now()
					}
				} else {
					tok.stageTick = s.clock.Now()
				}
			}
			return
		}
		// Instantaneous stage: release and fall through to the next.
		if st.Hold != nil && st.Release != 0 {
			st.Hold.Release(st.Release)
		}
		tok.idx++
	}
	s.tokenDone(tok)
}

// onTaskDone resumes a token whose queued stage completed.
func (s *Simulation) onTaskDone(t *queueing.Task) {
	tok, ok := t.Payload.(*token)
	if !ok {
		panic("core: completed task without token payload")
	}
	st := &tok.stages[tok.idx]
	if st.Hold != nil && st.Release != 0 {
		st.Hold.Release(st.Release)
	}
	tok.idx++
	s.startStage(tok)
}

// tokenDone accounts a finished message within its flow and recycles the
// token. A cross-capable token's chain end is a sequential-phase event by
// construction (the span scheduler ends spans before any chain-completion
// bound); it also unregisters from the span scheduler's token registry.
func (s *Simulation) tokenDone(tok *token) {
	f := tok.flow
	if tok.global {
		if s.sh != nil && s.sh.inSpan {
			panic(fmt.Sprintf("core: cross-capable message of flow %d completed inside a stretched span — chain-completion bound violated", f.id))
		}
		if s.sh != nil {
			last := len(s.crossToks) - 1
			i := int(tok.reg)
			s.crossToks[i] = s.crossToks[last]
			s.crossToks[i].reg = int32(i)
			s.crossToks[last] = nil
			s.crossToks = s.crossToks[:last]
		}
		s.pools.freeToken(tok)
	} else if ln := s.flowLane(f.op.DC); ln != nil {
		ln.pools.freeToken(tok)
	} else {
		s.pools.freeToken(tok)
	}
	f.outstanding--
	if f.outstanding < 0 {
		panic(fmt.Sprintf("core: flow %d over-completed", f.id))
	}
	if f.outstanding == 0 {
		s.advanceFlow(f)
	}
}

// completeFlow records the response time, runs the completion callback
// and recycles the flow.
// Inside a stretched span the completion books onto the lane (its own
// response buffer, its own counters, the lane's local tick for the
// completion instant); the counters merge into the simulation at the span
// exit barrier. A flow may start on one path and complete on the other —
// the delta accounting composes either way.
func (s *Simulation) completeFlow(f *Flow) {
	if !f.global {
		if ln := s.flowLane(f.op.DC); ln != nil {
			now := s.clock.SecondsAt(ln.tick)
			dur := now - f.start
			ln.flowDelta--
			s.AddGaugeBy(f.op.Gauge, -1)
			if !f.op.Silent {
				ln.resp.Record(f.op.Name, f.op.DC, now, dur)
			}
			ln.completed++
			ln.pools.freeFlow(f)
			return
		}
	}
	// Cross-capable flows complete here unconditionally: their last
	// message's tokenDone is a sequential-phase event by construction, and
	// the OnComplete callback (when present) must see the global
	// simulation, not a lane.
	now := s.clock.NowSeconds()
	dur := now - f.start
	s.activeFlows--
	if f.global {
		s.crossFlows--
	}
	s.AddGaugeBy(f.op.Gauge, -1)
	if !f.op.Silent {
		s.Responses.Record(f.op.Name, f.op.DC, now, dur)
	}
	s.completedOps++
	if f.op.OnComplete != nil {
		// A follow-on launch inside the callback takes a different flow:
		// this one returns to the pool only afterwards.
		f.op.OnComplete(now, dur)
	}
	s.pools.freeFlow(f)
}
