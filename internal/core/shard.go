package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/metrics"
	"repro/internal/queueing"
	"repro/internal/simtime"
)

// ShardRunner is the engine capability that unlocks the sharded PDES
// runtime: an engine that can run one function on every shard
// concurrently. When the configured engine implements it (dispatch.Sharded
// does) and fast-forward is on, the simulation partitions its agents
// across the shards and executes the parallel phases of each window —
// involved-agent advancement, mailbox application, horizon precomputation
// — shard-locally (on the caller when fewer than two shards have work, see
// shardState.runPhase), with all flow routing, RNG draws and metric writes
// staying in the sequential residue between barriers. Under
// Config.NoFastForward the plain loop drives the same engine through
// Sweep calls only.
type ShardRunner interface {
	Engine
	// ShardCount reports the number of shards the engine runs.
	ShardCount() int
	// RunShards invokes fn(shard) once per shard, concurrently, and
	// returns after every invocation finished. Calls never overlap: the
	// simulation is single-threaded between parallel phases.
	RunShards(fn func(shard int))
}

// mailEntry is one deferred cross-phase enqueue: a task handed to a queue
// agent either during the sequential drain (buffered into the owning
// shard's mailbox, applied at the end-of-drain barrier) or mid-span from a
// shard lane (posted into the target shard's inbox, applied at the next
// application point — span entry, collector-boundary span exit, or the
// next barrier window). due is the earliest tick at which the task can
// have an observable effect on the receiver: the posting tick plus the
// whole ticks covered by the task's fixed delay (for WAN-link hops, the
// link latency — the lookahead of the conservative protocol). post is the
// tick the enqueue happened at in sequential terms; lat snapshots the
// target link's latency then, so a late application can reconstruct the
// latency countdown bit-exactly (queueing.ReplayLatency). src and seq
// order concurrent posts the way the sequential drain would have: the
// drain visits agents in ascending ID at each tick, and seq preserves the
// completion order within one agent's drain. The apply phase audits that
// no replayed entry is ever applied at or past its due tick; the property
// tests pin the audit.
type mailEntry struct {
	q    QueueAgent
	t    *queueing.Task
	due  simtime.Tick
	post simtime.Tick
	lat  float64
	src  AgentID
	seq  uint64
}

// cmpMail orders inbox entries the way the sequential drain enqueued them:
// by tick, then by the draining agent's ID (the drain visits agents in
// ascending ID order), then by the per-lane post sequence (completion
// order within one agent's drain — one lane per agent makes it a valid
// global tiebreak). Due-time order would be wrong: a degraded link's
// longer latency can invert due order against post order.
func cmpMail(a, b mailEntry) int {
	switch {
	case a.post != b.post:
		if a.post < b.post {
			return -1
		}
		return 1
	case a.src != b.src:
		if a.src < b.src {
			return -1
		}
		return 1
	case a.seq != b.seq:
		if a.seq < b.seq {
			return -1
		}
		return 1
	}
	return 0
}

// shardInbox is one shard's mid-span inbound mailbox: cross-shard posts
// from any lane land here under the mutex (the only lock in the span path;
// posts are rare — one per WAN hop — and never contend with the owner,
// which only drains the inbox at sequential application points). The
// trailing pad keeps adjacent inboxes off one cache line.
type shardInbox struct {
	mu   sync.Mutex
	pend []mailEntry
	_    [64]byte
}

// shardBuf collects the activation/invalidation side effects a shard's
// worker produces while applying its mailbox, so the global active, dirty
// and drain sets are only touched by the deterministic sequential merge.
// mailApplied/mailMinSlack accumulate the shard's mailbox-safety audit
// (entries applied; minimum due-minus-horizon slack in ticks). The
// trailing pad keeps adjacent shards' buffers off one cache line.
type shardBuf struct {
	activated    []AgentID
	dirty        []AgentID
	drain        []AgentID
	liveDelta    int
	mailApplied  uint64
	mailMinSlack simtime.Tick
	_            [64]byte
}

// shardState is the sharded-runtime extension of a Simulation: the shard
// map, per-shard mailboxes and scratch, and the per-shard RNG seeds. It
// exists only when the configured engine is a ShardRunner and fast-forward
// is on.
type shardState struct {
	runner ShardRunner
	n      int
	// seeds[w] = DeriveSeed(Config.Seed, w): an independent stream root
	// per shard, for shard-resident stochastic components. The stock
	// cascade machinery draws all randomness in the sequential residue
	// (that is what keeps results bit-identical across shard counts), so
	// these streams are reserved capacity, exposed via ShardSeed.
	seeds []uint64
	// shardOf maps AgentID to owning shard; agents beyond its length (or
	// an unconfigured map) fall back to ID modulo n. Any assignment is
	// bit-identical — ownership only decides which worker executes an
	// agent's arithmetic — so the fallback is a correctness-neutral
	// default and topology.PartitionByDC a locality optimization.
	shardOf []int32

	// deferring routes flow-router enqueues into the mailboxes (drain
	// phase only); applying routes activate/invalidate into the per-shard
	// buffers (mailbox application only); inSpan routes the activation,
	// invalidation, sync and flow hooks onto the shard lanes (stretched
	// spans only). The three phases are mutually exclusive.
	deferring bool
	applying  bool
	inSpan    bool

	// stretch enables Chandy-Misra window stretching (Config.NoStretch
	// off): between global barriers each shard may run many consecutive
	// calendar windows on its own lane, bounded by the next collector
	// boundary, the run end and the earliest global-source due tick.
	stretch bool
	// noCross restores the PR 8 binary guard (Config.NoCrossStretch):
	// spans form only while no cross-capable flow is in flight. By default
	// spans instead bound themselves by the per-token chain-completion
	// guard plus the WAN lookahead and survive live cross-DC cascades.
	noCross bool
	// lookTicks is the installed WAN lookahead in ticks: the minimum over
	// all shards with a finite topology.ShardPlan.LookaheadSec of that
	// bound's TicksIn. Every mid-span cross-shard post targets a transit
	// link whose latency is at least the receiving shard's bound, so any
	// post made at lane tick p carries due >= p + lookTicks — capping a
	// span at entry+lookTicks keeps every post due strictly beyond the
	// span end. Zero means not installed (SetShardLookahead never called,
	// or some shard's inbound latency rounds to zero ticks): spans then
	// refuse to form while any token may still cross shards — the
	// conservative PR 8 behavior. neverTick means unbounded (no shard has
	// a finite bound, so no cross-shard edge exists at all).
	lookTicks simtime.Tick
	// dcLane maps each data-center name to its owning shard — the routing
	// table lane-confined flows and sources resolve through. Installed by
	// SetDCShards from the topology partition; spans never form while it
	// is empty.
	dcLane map[string]int
	// lanes is the per-shard span execution state; shardWindows counts the
	// lane windows each shard ran inside spans; committed[w] is the tick
	// shard w's agents are known to be advanced through at the last global
	// synchronization — the safe horizon the mailbox audit checks against.
	lanes        []laneState
	shardWindows []uint64
	committed    []simtime.Tick

	mail [][]mailEntry
	// inbox[w] receives mid-span cross-shard posts bound for shard w; mail
	// (above) receives the sequential drain's deferred enqueues. Both feed
	// applyEntry, but on different schedules: mail applies at the same tick
	// it was posted, inbox entries whole ticks later with a latency replay.
	inbox []shardInbox
	bufs  []shardBuf
	inv   [][]Agent   // involved-sweep partition scratch
	pre   [][]AgentID // horizon-precompute partition scratch

	// handoffs counts the phases and spans sent through RunShards; the
	// ones run on the caller (runPhase) are not counted.
	handoffs uint64

	// Per-phase worker functions, bound once so the RunShards calls a
	// window (or span) makes allocate no closures.
	sweepFn func(int)
	applyFn func(int)
	preFn   func(int)
	spanFn  func(int)
}

func newShardState(s *Simulation, runner ShardRunner, seed uint64) *shardState {
	n := runner.ShardCount()
	st := &shardState{
		runner:       runner,
		n:            n,
		seeds:        make([]uint64, n),
		shardWindows: make([]uint64, n),
		committed:    make([]simtime.Tick, n),
		mail:         make([][]mailEntry, n),
		inbox:        make([]shardInbox, n),
		bufs:         make([]shardBuf, n),
		inv:          make([][]Agent, n),
		pre:          make([][]AgentID, n),
	}
	for w := 0; w < n; w++ {
		st.seeds[w] = DeriveSeed(seed, uint64(w))
		st.bufs[w].mailMinSlack = neverTick
	}
	st.sweepFn = func(w int) {
		for _, a := range st.inv[w] {
			s.advanceFn(a)
		}
	}
	st.applyFn = func(w int) {
		box := st.mail[w]
		now := s.clock.Now()
		b := &st.bufs[w]
		for i := range box {
			st.applyEntry(s, &box[i], now, b)
			box[i] = mailEntry{}
		}
		st.mail[w] = box[:0]
	}
	st.preFn = func(w int) {
		for _, id := range st.pre[w] {
			s.agentHorizon(s.agents[id], s.agentTick[id])
		}
	}
	st.spanFn = func(w int) {
		ln := &st.lanes[w]
		for ln.tick < ln.spanEnd {
			s.laneWindow(ln)
		}
	}
	return st
}

// shard returns the owning shard of an agent.
func (st *shardState) shard(id AgentID) int32 {
	if int(id) < len(st.shardOf) {
		return st.shardOf[id]
	}
	return int32(int(id) % st.n)
}

// post buffers a drain-phase enqueue into the target agent's shard
// mailbox. The sequential drain is the only writer, so entries land in
// global drain order — each mailbox preserves the relative order of
// enqueues onto any one queue, which is the arrival-order contract FCFS,
// PS and delay-line queues key their determinism on. The due stamp is the
// posting tick plus the task's fixed delay in whole ticks: for a WAN-link
// hop that delay is the link latency, so a cross-shard message carries the
// WAN lookahead as its safety margin over the receiver's horizon.
func (st *shardState) post(s *Simulation, q QueueAgent, t *queueing.Task) {
	w := st.shard(q.ID())
	now := s.clock.Now()
	due := now
	if t.Delay > 0 {
		due += s.clock.TicksIn(t.Delay)
	}
	st.mail[w] = append(st.mail[w], mailEntry{q: q, t: t, due: due, post: now})
}

// applyEntry commits one deferred enqueue onto its target agent with the
// exact sync/enqueue/activate sequence the flow router would have run
// inline. Barrier-mail entries apply at their posting tick and reduce to
// that inline sequence verbatim. Inbox entries apply whole ticks after
// their post: the target is a latencied transit link whose task spends
// those ticks in its latency phase — consuming no bandwidth, holding only
// one of k connection slots — so the only state the late enqueue must
// reconstruct is the latency countdown, which ReplayLatency rebuilds
// bit-exactly from the snapshotted latency and the elapsed whole ticks.
// That reconstruction is only exact if the task would have held a slot
// from its posting instant, so a contended link is a loud protocol
// failure, never a silent divergence. The audit pins the conservative
// protocol: a replayed entry applied at or past its due tick would mean
// the receiver may already have advanced through state the message should
// have influenced.
func (st *shardState) applyEntry(s *Simulation, e *mailEntry, applyTick simtime.Tick, b *shardBuf) {
	if applyTick > e.post && applyTick >= e.due {
		panic(fmt.Sprintf("core: mailbox entry posted at tick %d, due at %d, applied at %d — past its due instant",
			e.post, e.due, applyTick))
	}
	if slack := e.due - applyTick; slack < b.mailMinSlack {
		b.mailMinSlack = slack
	}
	b.mailApplied++
	s.syncAgent(e.q.ID())
	replay := applyTick > e.post
	if replay {
		sf, ok := e.q.(interface{ FreeSlot() bool })
		if !ok || !sf.FreeSlot() {
			panic(fmt.Sprintf("core: replayed cross-shard delivery onto contended transit %T — latency replay would diverge", e.q))
		}
	}
	e.q.Enqueue(e.t)
	if replay {
		e.t.Delay = queueing.ReplayLatency(e.lat, int(applyTick-e.post), s.clock.Step())
	}
	e.q.Base().MarkActive()
	if tok, ok := e.t.Payload.(*token); ok {
		tok.parked = 0
		tok.stageTick = applyTick
		tok.home = st.shard(e.q.ID())
	}
}

// postInbox parks a mid-span cross-shard hand-off in the target shard's
// inbox. The posting lane stamps the entry with its own tick, the target
// link's latency (the entry's lookahead) and the sequential-order key; the
// token records its due tick so the span scheduler can bound later spans
// by the parked chain's earliest possible completion. The due assertion is
// the conservative protocol made executable: trySpan capped this span at
// entry+lookTicks, and every admissible target's latency covers at least
// that many ticks, so a post due inside its own span is a scheduler bug.
func (st *shardState) postInbox(s *Simulation, q QueueAgent, tok *token) {
	w := st.shard(q.ID())
	ln := &st.lanes[tok.home]
	lq, ok := q.(interface{ Latency() float64 })
	if !ok {
		panic(fmt.Sprintf("core: mid-span cross-shard hand-off to %T, want a latencied transit link", q))
	}
	if sg := &tok.stages[tok.idx]; sg.Hold != nil {
		panic(fmt.Sprintf("core: cross-shard stage on %s carries a Hold — it would be acquired or released on the wrong lane mid-span", q.Base().Name()))
	}
	lat := lq.Latency()
	post := ln.tick
	due := post + s.clock.TicksIn(lat)
	if due <= ln.spanEnd {
		panic(fmt.Sprintf("core: mid-span cross-shard post at tick %d due at %d, inside its own span (end %d) — lookahead bound violated",
			post, due, ln.spanEnd))
	}
	tok.parked = due
	ln.postSeq++
	e := mailEntry{q: q, t: &tok.task, due: due, post: post, lat: lat, src: ln.drainSrc, seq: ln.postSeq}
	ib := &st.inbox[w]
	ib.mu.Lock()
	ib.pend = append(ib.pend, e)
	ib.mu.Unlock()
}

// flushInbox applies every pending cross-shard inbox entry sequentially at
// the current tick, in sequential drain order. It runs at the application
// points outside lanes: the start of a barrier window (before the sources
// poll, so fault callbacks and probes read queues with all in-flight
// cross-shard work delivered) and a span exit that lands on a collector
// boundary or the run limit (before the snapshot, for the same reason).
// Every application point lies strictly before the earliest pending due
// tick — posts are due beyond their span's end, and these points are the
// first sequential instants after it — which the applyEntry audit checks.
func (st *shardState) flushInbox(s *Simulation) {
	now := s.clock.Now()
	for w := range st.inbox {
		ib := &st.inbox[w]
		if len(ib.pend) == 0 {
			continue
		}
		slices.SortFunc(ib.pend, cmpMail)
		b := &st.bufs[w]
		for i := range ib.pend {
			st.applyEntry(s, &ib.pend[i], now, b)
			ib.pend[i] = mailEntry{}
		}
		ib.pend = ib.pend[:0]
	}
}

// sweepInvolved advances the window's involved agents shard-locally:
// each worker replays exactly its own agents, in ascending ID order
// within the shard (the involved set arrives sorted). Per-agent
// arithmetic is identical to the engine-sweep path, so the result is
// bit-identical to any other execution order.
func (st *shardState) sweepInvolved(s *Simulation) {
	for w := range st.inv {
		st.inv[w] = st.inv[w][:0]
	}
	busy := 0
	for _, a := range s.invAgents {
		w := st.shard(a.ID())
		if len(st.inv[w]) == 0 {
			busy++
		}
		st.inv[w] = append(st.inv[w], a)
	}
	st.runPhase(st.sweepFn, busy)
}

// runPhase runs a pre-bound phase function on every shard. Only a phase
// with at least two busy shards pays the runner's hand-off; otherwise the
// shards run in ascending order on the caller. Shards share no state
// between barriers, so any serial order is a valid schedule of the
// concurrent phase and the results are bit-identical.
func (st *shardState) runPhase(fn func(int), busy int) {
	if busy >= 2 {
		st.handoffs++
		st.runner.RunShards(fn)
		return
	}
	for w := 0; w < st.n; w++ {
		fn(w)
	}
}

// applyMail drains every shard's mailbox concurrently — sync the target,
// enqueue, mark active, exactly the inline sequence the flow router
// deferred — then merges the buffered side effects into the global sets
// in ascending shard order. Within a shard, entries apply in mailbox
// (global drain) order; across shards the entries touch disjoint agents,
// so the merge order is observationally irrelevant and fixed anyway to
// keep runs reproducible under inspection.
func (st *shardState) applyMail(s *Simulation) {
	// The drain just ran at the current tick, so every shard's agents are
	// committed through it — the safe horizon the apply-phase audit checks
	// mailbox due stamps against.
	now := s.clock.Now()
	for w := range st.committed {
		if now > st.committed[w] {
			st.committed[w] = now
		}
	}
	busy := 0
	for w := range st.mail {
		if len(st.mail[w]) > 0 {
			busy++
		}
	}
	if busy == 0 {
		return
	}
	st.applying = true
	st.runPhase(st.applyFn, busy)
	st.applying = false
	for w := range st.bufs {
		b := &st.bufs[w]
		s.liveActive += b.liveDelta
		b.liveDelta = 0
		for _, id := range b.activated {
			if n := len(s.active); n > 0 && id < s.active[n-1] {
				s.activeSorted = false
			}
			s.active = append(s.active, id)
			s.sweepStale = true
		}
		b.activated = b.activated[:0]
		s.dirty = append(s.dirty, b.dirty...)
		b.dirty = b.dirty[:0]
		s.drainPend = append(s.drainPend, b.drain...)
		b.drain = b.drain[:0]
	}
}

// activateLocal is the applying-phase form of Simulation.activate: the
// same bookkeeping, buffered into the owning shard instead of written to
// the global sets. agentTick and the AgentBase flags are per-agent state
// owned by exactly one shard, so the direct writes are race-free.
func (st *shardState) activateLocal(s *Simulation, id AgentID) {
	b := &st.bufs[st.shard(id)]
	b.liveDelta++
	s.agentTick[id] = s.clock.Now()
	ab := s.agents[id].Base()
	if ab.listed {
		return // tombstone revived in place, same as the global path
	}
	ab.listed = true
	b.activated = append(b.activated, id)
}

// invalidateLocal is the applying-phase form of Simulation.invalidate.
func (st *shardState) invalidateLocal(s *Simulation, id AgentID) {
	b := &st.bufs[st.shard(id)]
	b.dirty = append(b.dirty, id)
	s.hMemoTick[id] = hMemoUnset
	if ab := s.agents[id].Base(); !ab.pendDrain {
		ab.pendDrain = true
		b.drain = append(b.drain, id)
	}
}

// precomputeHorizons warms the horizon memo for the dirty set
// shard-locally, so the sequential rekey that follows reads memoized
// values instead of paying every Horizon call on one core. Skipping an
// agent is always safe — rekeyDirty recomputes on a memo miss — so the
// filter mirrors rekey's own active check without having to be exact.
func (st *shardState) precomputeHorizons(s *Simulation) {
	if len(s.dirty) < st.n {
		return
	}
	for w := range st.pre {
		st.pre[w] = st.pre[w][:0]
	}
	busy := 0
	for _, id := range s.dirty {
		if !s.agents[id].Base().active {
			continue
		}
		w := st.shard(id)
		if len(st.pre[w]) == 0 {
			busy++
		}
		st.pre[w] = append(st.pre[w], id)
	}
	st.runPhase(st.preFn, busy)
}

// laneState is one shard's private slice of the simulation during a
// stretched span: its own clock position, event calendar, active/pinned
// sets, drain sets, source schedule view, flow bookkeeping and response
// buffer. A span partitions the corresponding global structures into the
// lanes at the entry barrier, lets every lane run the standard bulk-dense
// window loop privately — same jump sizing, same phase order, same
// per-agent arithmetic, so results are bit-identical — and merges the
// lanes back in ascending shard order at the exit barrier. Everything a
// lane touches between barriers is owned by exactly one shard: its agents
// (per the shard assignment), its DC's flows (Local cascades only), its
// DC-confined sources, gauges interned per DC, and per-agent memo slots.
// The trailing pad keeps adjacent lanes off one cache line.
type laneState struct {
	w       int32        // the lane's own shard index
	tick    simtime.Tick // the lane's local clock
	spanEnd simtime.Tick // the span's exit barrier tick
	limit   simtime.Tick // the run-level limit (full-sync detection)

	cal        calendar
	active     []AgentID
	pinned     []AgentID
	dirty      []AgentID
	drainPend  []AgentID
	drainSpare []AgentID
	invIDs     []AgentID

	// srcIdx indexes the lane's confined sources in s.sources/s.srcDue;
	// srcMin caches their minimum due tick, mirroring Simulation.srcMin.
	srcIdx []int
	srcMin simtime.Tick

	// inboxBatch holds the shard's pending inbox entries snapshotted at
	// span entry (already in sequential drain order); the lane applies
	// them first thing in its first window, at the span-entry tick —
	// always strictly before any entry's due tick, since every entry was
	// posted in an earlier span with due beyond that span's end. drainSrc
	// is the agent currently draining (the sequential-order key of any
	// cross-shard post its completions trigger) and postSeq the lane's
	// monotonic post counter.
	inboxBatch []mailEntry
	drainSrc   AgentID
	postSeq    uint64

	// Per-span deltas merged into the global counters at the exit barrier.
	liveDelta int
	flowDelta int
	completed uint64
	jumps     uint64
	skipped   uint64
	windows   uint64

	// Lane-local flow machinery: response buffer, flow and token pools and
	// ID counters, so in-span launches never touch the shared ones.
	resp       *metrics.Responses
	pools      msgPools
	nextFlowID uint64
	nextTaskID uint64

	_ [64]byte
}

// trySpan decides whether the next window can instead run as a stretched
// span and, if so, executes it. The preconditions are exactly the cases
// where per-lane execution is provably equivalent to the barriered loop:
//
//   - a DC-to-shard routing table is installed (SetDCShards) — without it
//     nothing can be lane-confined;
//   - no agent registration is pending (rebind);
//   - no global source — a source not registered lane-confined, or
//     confined to an unmapped DC — comes due before the span would end;
//   - no cross-capable flow can complete a message chain inside the span:
//     chain-end completion re-enters non-lane-safe code (step expansion,
//     load balancing, RNG draws), so the span ends strictly before every
//     registered token's conservative chain-completion bound (tokenGuard);
//   - when any such token may still hop shards, the span additionally
//     stays within the installed WAN lookahead, so every mid-span post is
//     due beyond the span's end (see shardState.lookTicks).
//
// Under Config.NoCrossStretch the last two bounds collapse back to the
// binary guard: no span while any cross-capable flow is in flight.
//
// The span bound S is the earliest of: the run limit, the next collector
// boundary, the earliest global-source due tick, and the cross-token
// bounds. Spans must cover at least two ticks to beat the classic window;
// otherwise the caller falls back to the barriered path.
func (s *Simulation) trySpan(limit simtime.Tick) bool {
	sh := s.sh
	if len(sh.dcLane) == 0 || s.rebind {
		return false
	}
	if sh.noCross && s.crossFlows != 0 {
		return false
	}
	now := s.clock.Now()
	S := limit
	if b := nextCollectBoundary(now, s.collectEvery); b < S {
		S = b
	}
	for i, dc := range s.srcDC {
		if dc != "" {
			if _, ok := sh.dcLane[dc]; ok {
				continue // lane-confined: polled inside its lane
			}
		}
		if s.srcDue[i] < S {
			S = s.srcDue[i]
		}
	}
	if S <= now+1 {
		return false
	}
	if len(s.crossToks) > 0 {
		anyCross := false
		for _, tok := range s.crossToks {
			lb, mayCross := s.tokenGuard(tok)
			if lb-1 < S {
				S = lb - 1
				// S only falls from here on, so the span is already
				// refused; the remaining tokens cannot change that.
				if S <= now+1 {
					return false
				}
			}
			anyCross = anyCross || mayCross
		}
		if anyCross {
			switch {
			case sh.lookTicks == 0:
				return false // lookahead not installed: PR 8 conservative blocking
			case sh.lookTicks < neverTick:
				if c := now + sh.lookTicks; c < S {
					S = c
				}
			}
		}
	}
	if S <= now+1 {
		return false
	}
	s.runSpan(S, limit)
	return true
}

// tokenGuard derives, for one live cross-capable message token, a
// conservative lower bound lb on the tick its final stage can complete
// (spans must end strictly before it — chain-end completion is not
// lane-safe) and whether any of its remaining stage transitions still
// crosses shards (only then does the WAN-lookahead cap apply; an
// all-local-remaining chain, e.g. a daemon's intra-DC tail, never posts).
//
// The bound is the fast-forward arithmetic run in reverse: an event at
// least rem seconds after real time anchor·step cannot be observed before
// anchor + 1 + WholeTicksBefore(rem − ffGuard). rem sums, per remaining
// stage, a lower bound on its residence time:
//
//   - the current stage uses live task state — the latency countdown plus
//     the transfer at full (uncontended) rate for a latencied PS link, the
//     task's own service demand for a known-rate FCFS queue, the unmutated
//     fixed delay for a delay line — anchored at the tick that state was
//     advanced through (agentTick, or the stage-entry tick for the delay
//     line, whose heap state is not readable per-task);
//   - a token parked in an inbox anchors at its due tick: the latency
//     countdown runs from the posting tick regardless of when the entry
//     applies, and cannot have expired before due, so only the transfer
//     and later stages remain (the loop discounts one tick against the
//     ceil-rounded due, hence no +1 on this anchor);
//   - future stages contribute their declared delay, service demand at the
//     target's current rate when it exposes one, and transit latency —
//     all valid through the span because rates and latencies change only
//     at fault ticks, and the fault controller is a global source whose
//     due tick already bounds every span.
//
// Queues exposing no rate contribute zero — conservative, shrinking the
// bound, never overshooting it.
func (s *Simulation) tokenGuard(tok *token) (lb simtime.Tick, mayCross bool) {
	sh := s.sh
	stages := tok.stages
	idx := tok.idx
	cur := stages[idx].Queue
	prevW := sh.shard(cur.ID())
	rem := 0.0
	for i := idx + 1; i < len(stages); i++ {
		st := &stages[i]
		if st.Queue == nil {
			continue
		}
		w := sh.shard(st.Queue.ID())
		if w != prevW {
			mayCross = true
		}
		prevW = w
		rem += st.Delay
		if r, ok := st.Queue.(interface{ Rate() float64 }); ok {
			rem += st.Demand / r.Rate()
		}
		if l, ok := st.Queue.(interface{ Latency() float64 }); ok {
			rem += l.Latency()
		}
	}
	t := &tok.task
	if tok.parked != 0 {
		if r, ok := cur.(interface{ Rate() float64 }); ok {
			rem += t.Demand / r.Rate()
		}
		return tok.parked + s.clock.WholeTicksBefore(rem-ffGuard), mayCross
	}
	var anchor simtime.Tick
	r, hasRate := cur.(interface{ Rate() float64 })
	_, hasLat := cur.(interface{ Latency() float64 })
	switch {
	case hasRate && hasLat: // latencied PS link: live countdown, full-rate transfer
		anchor = s.agentTick[cur.ID()]
		rem += t.Delay + t.Demand/r.Rate()
	case hasRate: // FCFS with a known per-server rate: own service time
		anchor = s.agentTick[cur.ID()]
		rem += t.Demand / r.Rate()
	default:
		// Anchored at stage entry: the tick the enqueue happened at. A
		// delay line holds the task exactly its unmutated fixed delay; a
		// rateless queue contributes nothing (its declared stage delay is
		// ignored by FCFS, so counting it would overshoot the bound).
		anchor = tok.stageTick
		if _, ok := cur.(*DelayLine); ok {
			rem += t.Delay
		}
	}
	return anchor + 1 + s.clock.WholeTicksBefore(rem-ffGuard), mayCross
}

// runSpan executes one stretched span [T, S): partition the global loop
// state into per-shard lanes, run every lane's window loop concurrently up
// to S, and merge the lanes back — the only global barrier the covered
// windows pay. The global clock is parked at T while lanes run (each lane
// carries its own tick) and commits to S at the exit barrier.
func (s *Simulation) runSpan(S, limit simtime.Tick) {
	sh := s.sh
	T := s.clock.Now()

	// Settle global state sequentially before partitioning: fold pending
	// invalidations into the calendar, drop active-set tombstones and
	// restore ascending order (lane active lists inherit sortedness).
	s.rekeyDirty()
	s.compactActive()

	// Partition. Lane calendars index the full agent population (cheap:
	// the pos slices persist across spans); entries, active IDs, drain
	// membership and pinned agents deal out by shard ownership.
	if sh.lanes == nil {
		sh.lanes = make([]laneState, sh.n)
		for w := range sh.lanes {
			ln := &sh.lanes[w]
			ln.w = int32(w)
			ln.resp = metrics.NewResponses()
			// Lane task/flow IDs live in a per-shard band so they never
			// collide with the sequential counters; IDs are bookkeeping
			// only (queueing is arrival-ordered), so the band choice is
			// behaviorally inert.
			ln.nextFlowID = uint64(w+1) << 48
			ln.nextTaskID = uint64(w+1) << 48
		}
	}
	for w := range sh.lanes {
		ln := &sh.lanes[w]
		ln.tick = T
		ln.spanEnd = S
		ln.limit = limit
		ln.cal.grow(len(s.agents))
		ln.active = ln.active[:0]
		ln.pinned = ln.pinned[:0]
		ln.srcIdx = ln.srcIdx[:0]
		ln.liveDelta = 0
		ln.flowDelta = 0
		ln.completed = 0
		ln.jumps = 0
		ln.skipped = 0
		ln.windows = 0
	}
	busy := 0
	for _, id := range s.active {
		ln := &sh.lanes[sh.shard(id)]
		if len(ln.active) == 0 {
			busy++
		}
		ln.active = append(ln.active, id)
	}
	s.active = s.active[:0]
	for _, e := range s.cal.entries {
		sh.lanes[sh.shard(e.id)].cal.set(e.id, e.key)
	}
	s.cal.clear()
	for _, id := range s.drainPend {
		sh.lanes[sh.shard(id)].drainPend = append(sh.lanes[sh.shard(id)].drainPend, id)
	}
	s.drainPend = s.drainPend[:0]
	for _, id := range s.pinnedIDs {
		sh.lanes[sh.shard(id)].pinned = append(sh.lanes[sh.shard(id)].pinned, id)
	}
	for i, dc := range s.srcDC {
		if dc == "" {
			continue
		}
		if w, ok := sh.dcLane[dc]; ok {
			sh.lanes[w].srcIdx = append(sh.lanes[w].srcIdx, i)
		}
	}
	for w := range sh.lanes {
		ln := &sh.lanes[w]
		min := neverTick
		for _, i := range ln.srcIdx {
			if s.srcDue[i] < min {
				min = s.srcDue[i]
			}
		}
		ln.srcMin = min
	}

	// Hand each shard's pending inbox entries to its lane, sorted into
	// sequential drain order; the lane applies them first thing in its
	// first window, at tick T — strictly before any entry's due tick,
	// since all of them were posted in an earlier span with due > T.
	// Mid-span posts land in the (empty again) inboxes for the next
	// application point.
	for w := range sh.inbox {
		ib := &sh.inbox[w]
		if len(ib.pend) == 0 {
			continue
		}
		slices.SortFunc(ib.pend, cmpMail)
		ln := &sh.lanes[w]
		ln.inboxBatch, ib.pend = ib.pend, ln.inboxBatch[:0]
	}

	// Run the lanes. Each executes the standard window loop privately up
	// to S; RunShards is the span's only barrier. Mid-span posts land in
	// the target's inbox and apply only at the next application point, so
	// running the lanes one after another is a valid interleaving too —
	// the cheaper one when at most one lane holds active agents.
	sh.inSpan = true
	sh.runPhase(sh.spanFn, busy)
	sh.inSpan = false

	// Merge in ascending shard order — deterministic, and observationally
	// order-free anyway: lanes touch disjoint agents, flows and series.
	for w := range sh.lanes {
		ln := &sh.lanes[w]
		s.liveActive += ln.liveDelta
		s.active = append(s.active, ln.active...)
		for _, e := range ln.cal.entries {
			s.cal.set(e.id, e.key)
		}
		ln.cal.clear()
		s.drainPend = append(s.drainPend, ln.drainPend...)
		ln.drainPend = ln.drainPend[:0]
		s.activeFlows += ln.flowDelta
		s.completedOps += ln.completed
		s.jumps += ln.jumps
		s.skipped += ln.skipped
		s.stretched += ln.windows
		sh.shardWindows[w] += ln.windows
		ln.resp.MergeInto(s.Responses)
		if S > sh.committed[w] {
			sh.committed[w] = S
		}
	}
	s.activeSorted = false
	s.sweepStale = true
	min := neverTick
	for _, due := range s.srcDue {
		if due < min {
			min = due
		}
	}
	s.srcMin = min

	s.clock.AdvanceBy(S - T)
	s.barriers++
	if S%s.collectEvery == 0 || S == limit {
		// The snapshot (and, at the limit, whatever runs after the loop)
		// reads queue counters, so in-flight cross-shard deliveries must
		// be in their queues first. Off-boundary span exits skip the
		// flush: pending entries carry into the next span's entry batch
		// or the next barrier window's flush, still ahead of their due
		// ticks.
		sh.flushInbox(s)
		if S%s.collectEvery == 0 {
			s.Collector.Snapshot(s.clock.NowSeconds())
		}
	}
}

// laneWindow runs one bulk-dense window on a single lane — a faithful
// per-shard transcription of Simulation.tickBulk, with the lane's tick,
// calendar, sets and counters standing in for the global ones. Keeping the
// phase order and the arithmetic identical is what makes a stretched span
// bit-identical to the barriered windows it replaces: a lane window's
// operations are the global window's operations restricted to one shard's
// agents, and operations on different shards' agents commute (disjoint
// per-agent state, per-DC round-robin/RNG/gauges, disjoint response keys).
func (s *Simulation) laneWindow(ln *laneState) {
	// Entry batch: cross-shard deliveries snapshotted at span entry apply
	// before anything else in the lane's first window, so they precede
	// every same-tick lane-local enqueue onto the same queues — the order
	// the sequential loop produced, where these tasks arrived whole ticks
	// ago. (Loaded only at span entry, so the batch is non-empty at most
	// in the first window.)
	if len(ln.inboxBatch) > 0 {
		sh := s.sh
		b := &sh.bufs[ln.w]
		for i := range ln.inboxBatch {
			sh.applyEntry(s, &ln.inboxBatch[i], ln.tick, b)
			ln.inboxBatch[i] = mailEntry{}
		}
		ln.inboxBatch = ln.inboxBatch[:0]
	}

	nowSec := s.clock.SecondsAt(ln.tick)

	// Phase 0: the lane's confined sources inject work.
	if ln.srcMin <= ln.tick {
		for _, i := range ln.srcIdx {
			if s.srcDue[i] <= ln.tick {
				s.sources[i].Poll(s, nowSec)
				s.srcDue[i] = s.srcDueTick(s.sources[i].NextPoll(nowSec), ln.tick)
			}
		}
		min := neverTick
		for _, i := range ln.srcIdx {
			if s.srcDue[i] < min {
				min = s.srcDue[i]
			}
		}
		ln.srcMin = min
	}

	s.laneRekey(ln)

	// Jump sizing against the lane's calendar and source schedule, with the
	// span end standing in for the run limit.
	jump := s.jumpTicks(ln.tick, ln.spanEnd, ln.srcMin, &ln.cal)
	landing := ln.tick + jump

	// The involved set: due calendar entries plus the lane's pinned
	// agents; laneRekey just ran, so the dirty flag is the dedup gate.
	ln.invIDs = ln.invIDs[:0]
	for ln.cal.len() > 0 && ln.cal.minKey() <= landing {
		id := ln.cal.popMin()
		b := s.agents[id].Base()
		b.dirty = true
		ln.dirty = append(ln.dirty, id)
		if !b.pendDrain {
			b.pendDrain = true
			ln.drainPend = append(ln.drainPend, id)
		}
		ln.invIDs = append(ln.invIDs, id)
	}
	for _, id := range ln.pinned {
		b := s.agents[id].Base()
		if !b.dirty {
			b.dirty = true
			ln.dirty = append(ln.dirty, id)
			ln.invIDs = append(ln.invIDs, id)
		}
		if !b.pendDrain {
			b.pendDrain = true
			ln.drainPend = append(ln.drainPend, id)
		}
	}

	fullSync := landing%s.collectEvery == 0 || landing == ln.limit
	if fullSync {
		s.laneCompact(ln)
		ln.invIDs = append(ln.invIDs[:0], ln.active...)
	} else if len(ln.invIDs) > 1 {
		slices.Sort(ln.invIDs)
	}

	// Phase 1: advance the involved agents through the window, inline —
	// the per-agent arithmetic of advanceInvolved without the global
	// advanceTo rendezvous (each lane has its own landing).
	for _, id := range ln.invIDs {
		if n := landing - s.agentTick[id]; n > 0 {
			base := s.agentTick[id]
			s.agentTick[id] = landing
			s.advanceAgent(s.agents[id], base, n)
		}
	}
	if jump > 1 {
		ln.jumps++
		ln.skipped += uint64(jump - 1)
	}
	ln.tick = landing

	// Phase 3: calendar-driven drain in ascending agent-ID order. Lane
	// flows' enqueues stay inside the lane; a cross-capable token whose
	// next stage lives on another shard posts to that shard's inbox, with
	// the draining agent's ID recorded as the sequential-order key.
	pend := ln.drainPend
	ln.drainPend = ln.drainSpare[:0]
	if len(pend) > 1 {
		slices.Sort(pend)
	}
	for _, id := range pend {
		ln.drainSrc = id
		s.agents[id].Base().pendDrain = false
		s.agents[id].Drain(s.drainFn)
	}
	ln.drainSpare = pend[:0]

	// Deactivation: involved agents that went idle tombstone in place.
	for _, id := range ln.invIDs {
		a := s.agents[id]
		b := a.Base()
		if b.active && !b.pinned && a.Idle() {
			b.active = false
			ln.liveDelta--
			ln.cal.remove(id)
		}
	}

	s.laneRekey(ln)
	ln.windows++
}

// laneRekey is rekeyDirty restricted to a lane: recompute the calendar
// entry of every agent the lane invalidated, keyed at the agent's own
// stepped-through tick.
func (s *Simulation) laneRekey(ln *laneState) {
	if len(ln.dirty) == 0 {
		return
	}
	for _, id := range ln.dirty {
		a := s.agents[id]
		b := a.Base()
		b.dirty = false
		if !b.active {
			ln.cal.remove(id)
			continue
		}
		base := s.agentTick[id]
		ln.cal.set(id, s.agentKey(s.agentHorizon(a, base), base))
	}
	ln.dirty = ln.dirty[:0]
}

// laneCompact is compactActive restricted to a lane: drop tombstones and
// restore ascending ID order before a full-sync window serves the whole
// lane-active set.
func (s *Simulation) laneCompact(ln *laneState) {
	kept := ln.active[:0]
	for _, id := range ln.active {
		b := s.agents[id].Base()
		if b.active {
			kept = append(kept, id)
		} else {
			b.listed = false
		}
	}
	ln.active = kept
	slices.Sort(ln.active)
}

// SetDCShards installs the data-center-to-shard routing table (normally
// topology.ShardPlan.DCShard) that lets the stretched-span scheduler
// resolve lane-confined flows and sources to their owning shard. Without
// it spans never form and the loop barriers every window. It is a no-op
// when the sharded runtime is not engaged.
//
// Every lane-confined source (AddLaneSource) must name a data center in
// the table: an unmapped lane source would silently fall back to global
// treatment — its due ticks bounding every span — which is a wiring bug,
// not a tuning choice. SetDCShards validates the sources registered so
// far and AddLaneSource validates later registrations against the
// installed table, so the two orders of assembly are covered.
func (s *Simulation) SetDCShards(m map[string]int) {
	if s.sh == nil {
		return
	}
	t := make(map[string]int, len(m))
	for dc, w := range m {
		if w < 0 || w >= s.sh.n {
			panic(fmt.Sprintf("core: data center %q assigned to shard %d, have %d shards", dc, w, s.sh.n))
		}
		t[dc] = w
	}
	for i, dc := range s.srcDC {
		if dc == "" {
			continue
		}
		if _, ok := t[dc]; !ok {
			panic(fmt.Sprintf("core: lane-confined source %d bound to data center %q, which the shard plan does not partition (have %s)",
				i+1, dc, dcNames(t)))
		}
	}
	s.sh.dcLane = t
}

// dcNames renders the partitioned data-center names for error messages.
func dcNames(m map[string]int) string {
	names := make([]string, 0, len(m))
	for dc := range m {
		names = append(names, dc)
	}
	slices.Sort(names)
	return fmt.Sprintf("%v", names)
}

// SetShardLookahead installs the per-shard conservative lookahead bounds
// (normally topology.ShardPlan.LookaheadSec): for each shard, the minimum
// latency over all WAN links entering it from another shard. The runtime
// folds them to the global minimum in ticks — the span cap that keeps
// every mid-span cross-shard post due strictly beyond its span's end (see
// shardState.lookTicks). Shards with an infinite bound (nothing enters
// them) are skipped; with no finite bound at all, spans are uncapped
// because no cross-shard edge exists. Without this call, spans refuse to
// form while any cross-capable token may still hop shards — the
// conservative pre-lookahead behavior. It is a no-op when the sharded
// runtime is not engaged.
func (s *Simulation) SetShardLookahead(sec []float64) {
	if s.sh == nil {
		return
	}
	min := simtime.Tick(neverTick)
	for _, l := range sec {
		if math.IsInf(l, 1) {
			continue
		}
		if k := s.clock.TicksIn(l); k < min {
			min = k
		}
	}
	s.sh.lookTicks = min
}

// Sharded reports the shard count when the sharded runtime is engaged
// (ShardRunner engine, Config.NoFastForward off).
func (s *Simulation) Sharded() (int, bool) {
	if s.sh == nil {
		return 0, false
	}
	return s.sh.n, true
}

// ShardSeed returns the derived RNG stream root of one shard
// (DeriveSeed(Config.Seed, shard)) — the seed shard-resident stochastic
// components draw from so their streams are independent of the
// sequential simulation RNG and of every other shard.
func (s *Simulation) ShardSeed(shard int) uint64 {
	if s.sh == nil || shard < 0 || shard >= s.sh.n {
		panic(fmt.Sprintf("core: shard %d out of range", shard))
	}
	return s.sh.seeds[shard]
}

// SetShardAssignment installs the AgentID-to-shard map, normally the
// per-datacenter partition from topology.PartitionByDC. Agents beyond the
// slice (registered later) fall back to ID modulo the shard count. The
// assignment affects locality only, never results; it is a no-op when the
// sharded runtime is not engaged.
func (s *Simulation) SetShardAssignment(assign []int32) {
	if s.sh == nil {
		return
	}
	for i, w := range assign {
		if w < 0 || int(w) >= s.sh.n {
			panic(fmt.Sprintf("core: agent %d assigned to shard %d, have %d shards", i, w, s.sh.n))
		}
	}
	s.sh.shardOf = append(s.sh.shardOf[:0], assign...)
}

// AgentCount reports the registered agent population, sizing external
// per-agent tables such as shard assignments.
func (s *Simulation) AgentCount() int { return len(s.agents) }
