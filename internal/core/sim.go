package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/metrics"
	"repro/internal/queueing"
	"repro/internal/simtime"
)

// Source injects work into the simulation. Sources are polled in the
// sequential phase, before the agent sweep: workload generators start
// client operations, background daemons launch SYNCHREP/INDEXBUILD jobs.
type Source interface {
	Poll(s *Simulation, now float64)
	// NextPoll reports the earliest simulated time at which a future Poll
	// may have an observable effect (launch work, draw randomness, move a
	// gauge), given that the source was just polled at now. Polls strictly
	// before the returned instant must be no-ops; the event-horizon
	// fast-forward relies on that contract to skip them wholesale.
	// Returning now (or any instant within the next step) keeps classic
	// per-tick polling. +Inf parks the source: the calendar loop will not
	// consult it again, so a source that is merely dormant — re-armed by a
	// completion callback rather than exhausted — must have that callback
	// invoke Simulation.RearmSource with the handle AddSource returned.
	NextPoll(now float64) float64
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(s *Simulation, now float64)

// Poll calls f.
func (f SourceFunc) Poll(s *Simulation, now float64) { f(s, now) }

// NextPoll returns now: an adapted function gives no schedule information,
// so it is conservatively polled every tick and vetoes fast-forward jumps.
func (f SourceFunc) NextPoll(now float64) float64 { return now }

// Config parameterizes a Simulation.
type Config struct {
	// Step is the time-loop granularity in seconds (§4.3.1 recommends at
	// least one order of magnitude below the canonical operation costs).
	Step float64
	// CollectEvery is the number of ticks between collector snapshots.
	CollectEvery int
	// Seed feeds the simulation's deterministic RNG streams.
	Seed uint64
	// Engine parallelizes agent sweeps; nil selects SequentialEngine.
	Engine Engine
	// NoFastForward disables the event-horizon fast-forward and forces the
	// plain tick-by-tick loop: every source polled every tick, every jump
	// length 1. Results are bit-identical either way — the equivalence
	// tests enforce it — so the flag exists for A/B benchmarking and as a
	// bisection aid, not as a safety valve. It implies NoCalendar.
	NoFastForward bool
	// NoCalendar disables the indexed event calendar and the poll
	// scheduler, restoring the scan-based fast-forward loop that recomputes
	// every source's NextPoll and every active agent's Horizon on each
	// iteration. Results are bit-identical with the calendar on or off;
	// the flag exists for A/B benchmarking the O(changed) scheduling win.
	// It implies NoBulkDense.
	NoCalendar bool
	// NoBulkDense disables agent-local bulk stepping for dense periods and
	// the calendar-driven drain, restoring the lock-step calendar loop that
	// sweeps and drains every active agent on every iteration. With the
	// flag off (the default), each iteration globally steps only the agents
	// whose calendar entry is due plus the pinned set; every other active
	// agent is advanced lazily — caught up in one bulk replay when it is
	// next enqueued on, popped due, or a collector boundary lands — and the
	// drain walks only the popped-due set plus the agents whose queues
	// fired SetNotify since the last drain. Results are bit-identical
	// either way — the equivalence tests enforce it — so the flag exists
	// for A/B benchmarking and bisection, not as a safety valve.
	NoBulkDense bool
	// NoThinning disables exponential-gap arrival thinning in sources that
	// support it (workload.AppWorkload), forcing per-tick Poisson draws.
	// Unlike the loop flags this one changes the RNG draw sequence: with
	// thinning on, results are distribution-identical to the per-tick loop
	// (same arrival law), not bit-identical; NoThinning restores the
	// bit-identity guarantee for client workloads.
	NoThinning bool
	// NoShards disables the sharded PDES runtime even when Engine is a
	// ShardRunner: the engine's workers still serve plain Sweep calls, but
	// the simulation skips the shard partition, the drain-phase mailboxes
	// and the shard-local window phases, running the stock bulk-dense
	// loop. Results are bit-identical with sharding on or off — the
	// equivalence tests enforce it — so like the other loop flags this is
	// an A/B benchmarking and bisection aid, not a safety valve.
	NoShards bool
	// NoStretch disables Chandy-Misra window stretching in the sharded
	// runtime: the simulation still partitions agents onto shards and
	// defers drain enqueues through the mailboxes, but every calendar
	// window ends in a global barrier as in the classic conservative loop,
	// instead of letting each shard run freely through consecutive windows
	// up to its safe bound. Results are bit-identical with stretching on or
	// off — the equivalence tests enforce it — so this is the A/B flag for
	// measuring what the spent lookahead buys (RunStats.Barriers /
	// RunStats.WindowsStretched), not a safety valve. No effect unless the
	// sharded runtime is active.
	NoStretch bool
	// NoCrossStretch keeps window stretching for shard-confined traffic but
	// restores the pre-lookahead guard for cross-shard traffic: spans only
	// form while no cross-shard flow is in flight, instead of bounding the
	// span by the WAN lookahead and each live cross token's conservative
	// completion bound. Results are bit-identical with the flag on or off —
	// the equivalence tests enforce it — so this is the A/B switch for
	// measuring what mid-span cross-DC delivery buys on its own, separate
	// from what NoStretch measures. No effect unless stretching is active.
	NoCrossStretch bool
	// NoFaults disables fault injection: attachment layers that would
	// schedule a fault controller (experiment compile) consult
	// FaultsEnabled and skip it entirely, so the run carries no controller
	// source, no fault probes and no fault transitions. The resulting run
	// is bit-identical to one that never declared faults — the equivalence
	// tests enforce it — making this the A/B flag for chaos scenarios in
	// the same spirit as NoCalendar/NoBulkDense: healthy baseline vs.
	// faulted run from one scenario definition.
	NoFaults bool
}

// Simulation owns the discrete time loop and everything attached to it:
// agents, sources, collector, response tracker and RNG. It is not safe for
// concurrent use; the engine parallelism is internal to the sweep phase.
type Simulation struct {
	clock   *simtime.Clock
	engine  Engine
	rebind  bool
	agents  []Agent
	sources []Source

	// active holds the IDs of agents with in-flight work or a pin, in no
	// particular order between ticks; Tick sorts it before each sweep so
	// both the sweep and the drain iterate in global agent-ID order — the
	// property that keeps every engine deterministic. Membership is
	// duplicate-free: AgentBase.active gates insertion.
	active []AgentID
	sweep  []Agent // scratch: the current tick's sorted active agents

	// activeSorted and sweepStale let unchanged ticks skip the sort and the
	// sweep re-slice: activation clears them (an append below the current
	// tail also breaks sortedness), deactivation compaction preserves order
	// but invalidates the materialized sweep.
	activeSorted bool
	sweepStale   bool

	Collector *metrics.Collector
	Responses *metrics.Responses

	collectEvery simtime.Tick
	seed         uint64
	rng          *rand.Rand

	fastForward bool   // event-horizon jumps enabled (Config.NoFastForward off)
	useCalendar bool   // indexed event calendar + poll scheduler (NoCalendar off)
	bulkDense   bool   // agent-local bulk stepping + calendar drains (NoBulkDense off)
	thinning    bool   // sources may thin arrivals (Config.NoThinning off)
	noFaults    bool   // fault injection disabled (Config.NoFaults on)
	jumps       uint64 // fast-forward jumps taken
	skipped     uint64 // whole ticks the jumps fast-forwarded across

	// cal is the pending-event set: one entry per active agent, keyed by
	// the absolute tick at which the agent may next act. dirty queues the
	// agents whose cached key is invalid — newly enqueued-on, drained into,
	// or past their event tick — for a horizon rekey; membership is gated
	// by AgentBase.dirty so the per-iteration cost is O(changed agents).
	cal   calendar
	dirty []AgentID

	// Bulk-dense loop state. agentTick records, per agent, the tick its
	// state has been stepped through — meaningful only while the agent is
	// active; lazily-stepped agents trail the clock and are caught up by
	// syncAgent. drainPend is the calendar-driven drain set: the agents
	// marked dirty since the last drain (popped due, enqueued on via
	// SetNotify), gated by AgentBase.pendDrain; drainSpare recycles the
	// previous drain's backing array. pinnedIDs lists the pinned agents,
	// which join every window's sweep by contract. liveActive counts the
	// truly active agents (the active slice may carry tombstones between
	// compactions). invIDs/invAgents are the per-iteration involved-sweep
	// scratch.
	agentTick  []simtime.Tick
	drainPend  []AgentID
	drainSpare []AgentID
	pinnedIDs  []AgentID
	liveActive int
	invIDs     []AgentID
	invAgents  []Agent
	advanceTo  simtime.Tick         // current window's landing tick (sweep target)
	advanceFn  func(Agent)          // advanceInvolved, bound once (no per-sweep closure)
	drainFn    func(*queueing.Task) // onTaskDone, bound once (no per-drain closure)

	// srcDue caches each source's due tick (first tick whose Poll may have
	// an observable effect); srcMin is their minimum. Sources reporting
	// +Inf are parked until Simulation.RearmSource re-consults them — a
	// completion callback that re-arms a dormant source must notify the
	// simulation explicitly. srcDC names, per source, the data center a
	// lane-confined source (AddLaneSource) injects into — "" for global
	// sources, whose due ticks bound every stretched span.
	srcDue []simtime.Tick
	srcMin simtime.Tick
	srcDC  []string

	// crossFlows counts the in-flight flows that are not shard-confined:
	// non-Local cascades (cross-DC hops) and flows carrying an OnComplete
	// callback (sequential-phase control transfers, e.g. daemon re-arms).
	// Under Config.NoCrossStretch the stretched-span scheduler only forms
	// spans while this is zero; by default it instead walks crossToks — the
	// live message tokens of those flows — and bounds each span by every
	// token's conservative chain-completion bound plus the WAN lookahead,
	// so spans survive live cross-DC cascades (see trySpan).
	crossFlows int

	// crossToks registers every live token of a cross-capable flow
	// (Flow.global). Tokens register at creation and unregister at
	// tokenDone, both sequential phases; token.reg holds the index for
	// swap-removal. trySpan derives, per token, a lower bound on the tick
	// its final stage can complete — chain-end completion re-enters
	// non-lane-safe code (step expansion, load balancing, RNG), so spans
	// must end strictly before the earliest such bound.
	crossToks []*token

	// barriers counts global synchronization points of the sharded loop
	// (one per classic window, one per stretched span); stretched counts
	// the shard-local windows executed inside spans. Their ratio is the
	// headline win of spending the WAN lookahead.
	barriers  uint64
	stretched uint64

	// sh is the sharded-runtime state, non-nil only when the engine is a
	// ShardRunner, the bulk-dense loop is on and Config.NoShards is off.
	sh *shardState

	// hMemo/hMemoTick memoize each agent's last computed Horizon together
	// with the basis tick (the tick the agent's state was stepped through
	// when the horizon was read). A horizon is a pure function of agent
	// state, which only changes when the agent steps (the basis advances)
	// or work arrives (the invalidation hooks reset the entry), so a
	// basis-matched memo read is bitwise-exact — rekeyDirty and the bulk
	// chunk sizing share one computation instead of re-reading the queue.
	hMemo     []float64
	hMemoTick []simtime.Tick

	gaugeIdx  map[string]Gauge
	gaugeVals []float64
	pools     msgPools // recycled flows and tokens of sequential phases

	nextFlowID   uint64
	nextTaskID   uint64
	activeFlows  int
	completedOps uint64
}

// NewSimulation builds a simulation from the configuration, applying
// defaults: 10 ms step, snapshot every 100 ticks, sequential engine.
func NewSimulation(cfg Config) *Simulation {
	if cfg.Step <= 0 {
		cfg.Step = 0.01
	}
	if cfg.CollectEvery <= 0 {
		cfg.CollectEvery = 100
	}
	eng := cfg.Engine
	if eng == nil {
		eng = &SequentialEngine{}
	}
	s := &Simulation{
		clock:        simtime.NewClock(cfg.Step),
		engine:       eng,
		Collector:    metrics.NewCollector(),
		Responses:    metrics.NewResponses(),
		collectEvery: simtime.Tick(cfg.CollectEvery),
		seed:         cfg.Seed,
		rng:          rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		gaugeIdx:     make(map[string]Gauge),
		fastForward:  !cfg.NoFastForward,
		useCalendar:  !cfg.NoCalendar && !cfg.NoFastForward,
		bulkDense:    !cfg.NoBulkDense && !cfg.NoCalendar && !cfg.NoFastForward,
		thinning:     !cfg.NoThinning,
		noFaults:     cfg.NoFaults,
		activeSorted: true,
		srcMin:       neverTick,
	}
	s.advanceFn = s.advanceInvolved
	s.drainFn = s.onTaskDone
	// The sharded runtime needs the bulk-dense window structure: its
	// barriers are the window boundaries, so the lock-step loops run any
	// engine — including a ShardRunner — through plain Sweep calls.
	if sr, ok := eng.(ShardRunner); ok && s.bulkDense && !cfg.NoShards {
		s.sh = newShardState(s, sr, cfg.Seed)
		s.sh.stretch = !cfg.NoStretch
		s.sh.noCross = cfg.NoCrossStretch
	}
	return s
}

// Clock exposes the simulation clock (read-only use by callers).
func (s *Simulation) Clock() *simtime.Clock { return s.clock }

// RNG returns the simulation's deterministic random stream. It must only be
// used from sequential phases (sources, expansion, completion callbacks).
// Components that need their own stream should not consume draws from it —
// that couples them to every other consumer's draw count; they derive an
// independent seed with DeriveSeed(Seed(), stream) instead.
func (s *Simulation) RNG() *rand.Rand { return s.rng }

// Seed returns the seed the simulation was configured with — the base that
// sub-RNG creation sites pass to DeriveSeed.
func (s *Simulation) Seed() uint64 { return s.seed }

// Thinning reports whether arrival thinning is enabled (Config.NoThinning
// off). Sources that can trade per-tick draws for sampled inter-arrival
// gaps (workload.AppWorkload) consult it so one simulation-level flag
// restores the bit-identity guarantee.
func (s *Simulation) Thinning() bool { return s.thinning }

// FaultsEnabled reports whether fault injection may attach (Config.NoFaults
// off). Layers that schedule fault controllers consult it before adding
// any source or probe, so a NoFaults run is structurally — and therefore
// bit — identical to a fault-free one.
func (s *Simulation) FaultsEnabled() bool { return !s.noFaults }

// NextAgentID reserves the next agent identifier.
func (s *Simulation) NextAgentID() AgentID { return AgentID(len(s.agents)) }

// AddAgent registers an agent. The agent must have been initialized with
// the ID returned by the immediately preceding NextAgentID call.
func (s *Simulation) AddAgent(a Agent) {
	if s.sh != nil && s.sh.inSpan {
		panic(fmt.Sprintf("core: agent %q registered inside a stretched span", a.Name()))
	}
	if got, want := a.ID(), AgentID(len(s.agents)); got != want {
		panic(fmt.Sprintf("core: agent %q registered with ID %d, want %d", a.Name(), got, want))
	}
	s.agents = append(s.agents, a)
	s.cal.grow(len(s.agents))
	for len(s.agentTick) < len(s.agents) {
		s.agentTick = append(s.agentTick, 0)
	}
	for len(s.hMemoTick) < len(s.agents) {
		s.hMemoTick = append(s.hMemoTick, hMemoUnset)
		s.hMemo = append(s.hMemo, 0)
	}
	b := a.Base()
	b.sim = s
	if b.pinned || !a.Idle() {
		b.MarkActive() // pinned (or pre-loaded) before registration
		if b.pinned && !b.inPinned {
			b.inPinned = true
			s.pinnedIDs = append(s.pinnedIDs, b.id)
		}
	}
	s.rebind = true
}

// activate records an agent ID in the active set. Callers go through
// AgentBase.MarkActive, which guarantees duplicate-free O(1) insertion.
// An append below the current tail breaks sortedness; any append
// invalidates the materialized sweep. Under the bulk-dense loop an agent
// activates "current": its state has trivially been stepped through the
// present tick, so lazy catch-up starts from here; a tombstoned entry
// (deactivated but not yet compacted away) is revived in place.
func (s *Simulation) activate(id AgentID) {
	if s.sh != nil {
		if s.sh.applying {
			s.sh.activateLocal(s, id)
			return
		}
		if s.sh.inSpan {
			// Stretched span: the activation happened on a shard lane (an
			// enqueue from that lane's own flows — spans only run
			// shard-confined work), so it books onto the lane's active list
			// at the lane's local tick and merges at the exit barrier.
			ln := &s.sh.lanes[s.sh.shard(id)]
			ln.liveDelta++
			s.agentTick[id] = ln.tick
			b := s.agents[id].Base()
			if b.listed {
				return
			}
			b.listed = true
			ln.active = append(ln.active, id)
			return
		}
	}
	s.liveActive++
	s.agentTick[id] = s.clock.Now()
	b := s.agents[id].Base()
	if b.listed {
		return // bulk-dense tombstone: the slice entry is still there
	}
	b.listed = true
	if n := len(s.active); n > 0 && id < s.active[n-1] {
		s.activeSorted = false
	}
	s.active = append(s.active, id)
	s.sweepStale = true
}

// invalidate queues an agent for a calendar rekey and, under the
// bulk-dense loop, for the next calendar-driven drain. Callers go through
// AgentBase.MarkActive/MarkDirty, which gate duplicates; it must only run
// in sequential phases.
func (s *Simulation) invalidate(id AgentID) {
	if !s.useCalendar {
		return
	}
	if s.sh != nil {
		if s.sh.applying {
			s.sh.invalidateLocal(s, id)
			return
		}
		if s.sh.inSpan {
			// Stretched span: the invalidation came from the agent's own
			// lane, so it joins that lane's dirty and drain sets — the lane
			// window loop rekeys and drains with the same gating the global
			// loop uses.
			ln := &s.sh.lanes[s.sh.shard(id)]
			ln.dirty = append(ln.dirty, id)
			s.hMemoTick[id] = hMemoUnset
			if b := s.agents[id].Base(); !b.pendDrain {
				b.pendDrain = true
				ln.drainPend = append(ln.drainPend, id)
			}
			return
		}
	}
	s.dirty = append(s.dirty, id)
	s.hMemoTick[id] = hMemoUnset
	if s.bulkDense {
		if b := s.agents[id].Base(); !b.pendDrain {
			b.pendDrain = true
			s.drainPend = append(s.drainPend, id)
		}
	}
}

// hMemoUnset marks a horizon memo entry invalid. Basis ticks are clock
// ticks and therefore never negative.
const hMemoUnset = simtime.Tick(-1)

// agentHorizon returns the agent's horizon as observed at the given basis
// tick (the tick its state has been stepped through), memoizing the
// computation. Between invalidations an agent's state is a pure function
// of its basis, so a basis match returns the bitwise-identical value the
// direct call would produce. Callers in parallel phases are safe as long
// as each agent is read by its owning worker only — the memo slots are
// per-agent.
func (s *Simulation) agentHorizon(a Agent, basis simtime.Tick) float64 {
	id := a.ID()
	if s.hMemoTick[id] == basis {
		return s.hMemo[id]
	}
	h := a.Horizon()
	s.hMemo[id] = h
	s.hMemoTick[id] = basis
	return h
}

// ActiveAgents reports the current size of the active set.
func (s *Simulation) ActiveAgents() int { return s.liveActive }

// SourceHandle identifies a registered source. Handles are 1-based so the
// zero value means "none"; they are returned by AddSource and consumed by
// RearmSource.
type SourceHandle int

// AddSource registers a work source and returns its handle. The scan loop
// polls every source every tick; the calendar loop polls a source whenever
// its NextPoll schedule is due, starting at the next tick boundary. A
// source whose NextPoll returns +Inf is parked: it is not re-consulted
// until RearmSource is called with its handle, so a source that goes
// dormant and is re-armed by a completion callback must notify the
// simulation from that callback.
func (s *Simulation) AddSource(src Source) SourceHandle {
	if s.sh != nil && s.sh.inSpan {
		panic("core: source registered inside a stretched span")
	}
	s.sources = append(s.sources, src)
	due := s.clock.Now()
	s.srcDue = append(s.srcDue, due)
	s.srcDC = append(s.srcDC, "")
	if due < s.srcMin {
		s.srcMin = due
	}
	return SourceHandle(len(s.sources))
}

// AddLaneSource registers a work source that is confined to one data
// center: everything it launches is a Local (shard-confined) cascade on
// dc's agents, it draws randomness only from its own streams, and it never
// touches cross-DC state. That declaration lets the stretched-span
// scheduler poll the source from dc's shard lane between barriers instead
// of treating its due ticks as span bounds. A source registered this way
// must be fully initialized — its first in-lane Poll cannot intern gauges
// or otherwise mutate shared simulation state.
func (s *Simulation) AddLaneSource(src Source, dc string) SourceHandle {
	if dc == "" {
		panic("core: lane-confined source registered with an empty data-center name")
	}
	if s.sh != nil && len(s.sh.dcLane) > 0 {
		if _, ok := s.sh.dcLane[dc]; !ok {
			panic(fmt.Sprintf("core: lane-confined source bound to data center %q, which the shard plan does not partition (have %s)",
				dc, dcNames(s.sh.dcLane)))
		}
	}
	h := s.AddSource(src)
	s.srcDC[h-1] = dc
	return h
}

// RearmSource re-consults a parked source's NextPoll schedule. Completion
// callbacks that re-arm a dormant (+Inf-schedule) source call it so the
// calendar loop picks the new schedule up without re-polling every dormant
// source on every iteration; it is harmless (and cheap) to call for a
// source that never went dormant. The zero handle is a no-op, and the scan
// loop — which re-consults everything every tick anyway — ignores it.
func (s *Simulation) RearmSource(h SourceHandle) {
	if h <= 0 || int(h) > len(s.sources) || !s.useCalendar {
		return
	}
	if s.sh != nil && s.sh.inSpan {
		// Unreachable by construction: re-arms come from OnComplete
		// callbacks, OnComplete-bearing flows are cross-capable, and the
		// span scheduler ends every span strictly before any cross-capable
		// chain can complete (trySpan's tokenGuard bound).
		panic("core: RearmSource inside a stretched span")
	}
	i := int(h) - 1
	due := s.srcDueTick(s.sources[i].NextPoll(s.clock.NowSeconds()), s.clock.Now())
	s.srcDue[i] = due
	if due < s.srcMin {
		s.srcMin = due
	}
}

// StartOp launches an operation instance now. Must be called from a
// sequential phase (a Source poll or a completion callback).
func (s *Simulation) StartOp(op OpRun) { s.startOp(op) }

// ActiveFlows reports the number of in-flight operations.
func (s *Simulation) ActiveFlows() int { return s.activeFlows }

// CompletedOps reports the total number of finished operations.
func (s *Simulation) CompletedOps() uint64 { return s.completedOps }

// Gauge is an interned handle to a named simulation gauge: an index into a
// dense value slice, so per-flow accounting on the hot path avoids the map
// lookup of the string-keyed API. The zero value is "no gauge".
type Gauge int

// GaugeHandle interns key and returns its handle. Handles are stable for
// the simulation's lifetime; interning the same key twice returns the same
// handle. Hot paths should intern once and use the handle-based methods.
func (s *Simulation) GaugeHandle(key string) Gauge {
	if key == "" {
		return 0
	}
	if g, ok := s.gaugeIdx[key]; ok {
		return g
	}
	if s.sh != nil && s.sh.inSpan {
		panic(fmt.Sprintf("core: gauge %q interned inside a stretched span", key))
	}
	s.gaugeVals = append(s.gaugeVals, 0)
	g := Gauge(len(s.gaugeVals)) // 1-based so the zero Gauge means "none"
	s.gaugeIdx[key] = g
	return g
}

// AddGaugeBy adjusts the gauge behind a handle by delta. A zero handle is a
// no-op, so callers can pass an unset optional gauge unconditionally.
func (s *Simulation) AddGaugeBy(g Gauge, delta float64) {
	if g != 0 {
		s.gaugeVals[g-1] += delta
	}
}

// GaugeValueBy reads the gauge behind a handle (0 for the zero handle).
func (s *Simulation) GaugeValueBy(g Gauge) float64 {
	if g == 0 {
		return 0
	}
	return s.gaugeVals[g-1]
}

// AddGauge adjusts a named gauge by delta — the string-keyed wrapper around
// GaugeHandle/AddGaugeBy for probes and infrequent callers.
func (s *Simulation) AddGauge(key string, delta float64) { s.AddGaugeBy(s.GaugeHandle(key), delta) }

// GaugeValue reads a named gauge (0 when never set).
func (s *Simulation) GaugeValue(key string) float64 { return s.GaugeValueBy(s.GaugeHandle(key)) }

// GaugeProbe returns a collector probe sampling the named gauge, for
// concurrent-client series (Fig. 5-6). The handle is resolved once.
func (s *Simulation) GaugeProbe(key string) metrics.Probe {
	g := s.GaugeHandle(key)
	return metrics.Probe{Key: key, Sample: func(float64) float64 { return s.GaugeValueBy(g) }}
}

// Tick advances the simulation by exactly one step, executing the three
// phases described in the package documentation. Direct callers always get
// a single step; the event-horizon fast-forward only engages inside
// RunFor/RunUntilIdle, which pass their end tick as the jump bound.
func (s *Simulation) Tick() { s.tick(s.clock.Now() + 1) }

// tick advances the simulation by one step or, when the event horizon
// allows, by a jump of whole ticks landing no later than limit.
func (s *Simulation) tick(limit simtime.Tick) {
	if s.bulkDense {
		s.tickBulk(limit)
		return
	}
	step := s.clock.Step()
	now := s.clock.NowSeconds()

	// Phase 0 (sequential): sources inject new work for this tick,
	// activating the agents they enqueue on. The calendar loop polls only
	// the sources whose schedule is due — skipped polls are no-ops by the
	// NextPoll contract; the scan loop polls everything every tick.
	if s.useCalendar {
		s.pollDue(now)
	} else {
		for _, src := range s.sources {
			src.Poll(s, now)
		}
	}

	// Rebind after the polls: sources may register agents that are
	// activated into this very tick's sweep, and engines size per-agent
	// resources (ScatterGather's port table) from the bound population.
	if s.rebind {
		s.engine.Bind(s.agents)
		s.rebind = false
	}

	// Materialize this tick's active agents in ascending ID order — the
	// drain order contract that keeps every engine deterministic. Ticks
	// with an unchanged active set skip both the sort and the re-slice:
	// activation invalidates them, deactivation compaction preserves order
	// but invalidates the materialized sweep.
	if !s.activeSorted {
		slices.Sort(s.active)
		s.activeSorted = true
		s.sweepStale = true
	}
	if s.sweepStale {
		s.sweep = s.sweep[:0]
		for _, id := range s.active {
			s.sweep = append(s.sweep, s.agents[id])
		}
		s.sweepStale = false
	}

	// Fold this tick's invalidations — source enqueues, fresh
	// registrations — into the calendar before reading its head.
	if s.useCalendar {
		s.rekeyDirty()
	}

	jump := simtime.Tick(1)
	if s.fastForward && limit > s.clock.Now()+1 {
		if s.useCalendar {
			jump = s.quietTicksCal(limit)
		} else {
			jump = s.quietTicks(limit)
		}
	}

	// Phase 1 (parallel): time increment over the active agents only.
	if jump == 1 {
		s.engine.Sweep(s.sweep, func(a Agent) { a.Step(step) })
	} else {
		// Event-horizon fast-forward: no source fires and no agent event
		// falls within the next jump ticks, so the skipped polls, drains
		// and bookkeeping are all no-ops. Each active agent still advances
		// through the elapsed ticks with the same fixed step the plain
		// loop would use — one large dt would change float accumulation
		// order and break bit-identity — but agent-locally, without the
		// per-tick loop machinery: bulk-stepping agents collapse the
		// window into tight per-accumulator loops, the rest replay Step
		// tick by tick, and an empty active set jumps in O(1).
		n := int(jump)
		s.engine.Sweep(s.sweep, func(a Agent) {
			if bs, ok := a.(BulkStepper); ok {
				bs.StepN(n, step)
				return
			}
			for i := 0; i < n; i++ {
				a.Step(step)
			}
		})
		s.jumps++
		s.skipped += uint64(jump - 1)
	}

	tick := s.clock.AdvanceBy(jump)

	// Agents whose scheduled event tick has arrived may have acted during
	// the sweep; pop them off the calendar and queue them for a rekey once
	// the drain has settled their state.
	if s.useCalendar {
		s.popDue(tick)
	}

	// Phase 3 (sequential): interaction — completed tasks advance flows.
	// Downstream agents activated here join s.active beyond this tick's
	// sweep slice and are first served next tick (§4.3.3 timestamp rule).
	for _, a := range s.sweep {
		a.Drain(s.drainFn)
	}

	// Deactivation: drop swept agents that went idle, keeping relative
	// order, then re-append agents activated during the drain. Writes into
	// the kept prefix never overtake the reads: kept grows at most as fast
	// as the loop index.
	kept := s.active[:0]
	for i, a := range s.sweep {
		b := a.Base()
		if b.pinned || !a.Idle() {
			kept = append(kept, s.active[i])
		} else {
			b.active = false
			b.listed = false
			s.liveActive--
			if s.useCalendar {
				s.cal.remove(b.id)
			}
		}
	}
	if len(kept) != len(s.sweep) {
		s.sweepStale = true
	}
	s.active = append(kept, s.active[len(s.sweep):]...)

	// Rekey everything invalidated since the jump was sized: agents past
	// their event tick, downstream agents enqueued during the drain.
	if s.useCalendar {
		s.rekeyDirty()
	}

	// Phase 2: measurement collection at snapshot boundaries.
	if tick%s.collectEvery == 0 {
		s.Collector.Snapshot(s.clock.NowSeconds())
	}
}

// tickBulk is the bulk-dense variant of tick: instead of sweeping and
// draining every active agent in lock step, each iteration globally steps
// only the agents that can act within the window — the calendar entries
// due by the landing tick plus the pinned set — and every other active
// agent advances agent-locally: it is left untouched now and caught up in
// one horizon-bounded bulk replay when it next matters (it is enqueued on,
// pops due, or a collector boundary / run end lands). The drain walks the
// popped-due set plus the agents whose queues fired SetNotify since the
// last drain, instead of the whole sweep. Jump sizing, poll scheduling and
// per-agent arithmetic are identical to the calendar loop, so results stay
// bit-identical (Config.NoBulkDense restores the lock-step loop for A/B).
//
// The invariants that make laziness exact:
//
//   - An active agent's calendar key is the first tick it may act,
//     computed relative to agentTick (the tick its state has advanced
//     through). While its key lies beyond the clock it has no event in the
//     trailing window, so a bulk replay of the deficit is bit-identical to
//     having stepped it every iteration — the same per-accumulator
//     operation sequence, merely batched.
//   - Mutating or reading an agent's tick-dependent state from a
//     sequential phase is always preceded by a catch-up (AgentBase.Sync in
//     hardware Enqueues, syncAgent in the flow router), so enqueues land
//     on state identical to the lock-step loop's.
//   - Only agents at their event tick can buffer completions, and those
//     are exactly the popped-due set; enqueued-on agents are in the drain
//     set via their SetNotify invalidation. Lazy agents therefore never
//     hold completions, and skipping their Drain is exact.
func (s *Simulation) tickBulk(limit simtime.Tick) {
	// Spend the lookahead first: when the sharded runtime is on, no
	// cross-shard flow is in flight and no global source is due before the
	// next synchronization point, the shards can run a stretched span —
	// many consecutive windows each, meeting only at the exit barrier —
	// instead of barriering this window.
	if s.sh != nil {
		if s.sh.stretch && s.trySpan(limit) {
			return
		}
		s.barriers++
		// Entries a lane posted mid-span and no later span consumed apply
		// now, before the sources poll: fault callbacks and probes sample
		// queue counters, so the in-flight cross-shard work must be in its
		// queues by the time anything sequential reads them.
		s.sh.flushInbox(s)
	}
	now := s.clock.NowSeconds()

	// Phase 0 (sequential): due sources inject work. Enqueues catch the
	// target agents up to the current tick before mutating their queues,
	// then mark them dirty (and into the drain set).
	s.pollDue(now)

	if s.rebind {
		s.engine.Bind(s.agents)
		s.rebind = false
	}

	// Fold this tick's invalidations into the calendar before reading its
	// head. Every dirty agent is current (caught up by its invalidation
	// hook), so its horizon is relative to the present tick.
	s.rekeyDirty()

	jump := simtime.Tick(1)
	if s.fastForward && limit > s.clock.Now()+1 {
		jump = s.quietTicksCal(limit)
	}
	landing := s.clock.Now() + jump

	// The involved set: agents whose scheduled event tick falls within the
	// window (by jump construction that means exactly at the landing tick),
	// plus every pinned agent. Popping marks them dirty — their horizon
	// changes as they act — and into the drain set. rekeyDirty just ran, so
	// the dirty flag doubles as the involved-set dedup gate.
	s.invIDs = s.invIDs[:0]
	for s.cal.len() > 0 && s.cal.minKey() <= landing {
		id := s.cal.popMin()
		b := s.agents[id].Base()
		b.dirty = true
		s.dirty = append(s.dirty, id)
		if !b.pendDrain {
			b.pendDrain = true
			s.drainPend = append(s.drainPend, id)
		}
		s.invIDs = append(s.invIDs, id)
	}
	for _, id := range s.pinnedIDs {
		b := s.agents[id].Base()
		if !b.dirty {
			b.dirty = true
			s.dirty = append(s.dirty, id)
			s.invIDs = append(s.invIDs, id)
		}
		if !b.pendDrain {
			b.pendDrain = true
			s.drainPend = append(s.drainPend, id)
		}
	}

	// Synchronization points gather everyone: collector boundaries need
	// exact busy accumulators for every probe, and a landing on the run
	// end hands callers a fully-advanced simulation. Compaction drops the
	// tombstones deactivation left behind.
	fullSync := landing%s.collectEvery == 0 || landing == limit
	if fullSync {
		s.compactActive()
		s.invIDs = append(s.invIDs[:0], s.active...)
	} else if len(s.invIDs) > 1 {
		slices.Sort(s.invIDs)
	}
	s.invAgents = s.invAgents[:0]
	for _, id := range s.invIDs {
		s.invAgents = append(s.invAgents, s.agents[id])
	}

	// Phase 1 (parallel): advance the involved agents through the window —
	// catching up any lazy deficit first — in horizon-bounded bulk chunks
	// with single steps at event ticks. Iterations with nothing involved
	// (mid-jump landings) skip the engine round-trip entirely. Under the
	// sharded runtime each shard's worker advances exactly its own agents;
	// otherwise the engine sweeps the sorted involved set.
	if len(s.invAgents) > 0 {
		s.advanceTo = landing
		if s.sh != nil {
			s.sh.sweepInvolved(s)
		} else {
			s.engine.Sweep(s.invAgents, s.advanceFn)
		}
	}
	if jump > 1 {
		s.jumps++
		s.skipped += uint64(jump - 1)
	}

	tick := s.clock.AdvanceBy(jump)

	// Phase 3 (sequential): calendar-driven drain in ascending agent-ID
	// order — the same order the lock-step loop drains, restricted to the
	// only agents that can hold completions or fresh work. Invalidations
	// fired during the drain (downstream enqueues) accumulate for the next
	// iteration's drain set.
	// Under the sharded runtime the drain defers its enqueues: flow
	// routing, RNG draws and response accounting run sequentially as
	// always, but each task hand-off is posted to the target shard's
	// mailbox instead of touching the queue, and the mailboxes are applied
	// shard-parallel at the end-of-drain barrier. Deferral is exact
	// because nothing in the drain residue reads a target queue's state:
	// completions only exist on popped-due agents, route picking is
	// round-robin, and the idle checks below run after the apply.
	pend := s.drainPend
	s.drainPend = s.drainSpare[:0]
	if len(pend) > 1 {
		slices.Sort(pend)
	}
	if s.sh != nil {
		s.sh.deferring = true
	}
	for _, id := range pend {
		s.agents[id].Base().pendDrain = false
		s.agents[id].Drain(s.drainFn)
	}
	if s.sh != nil {
		s.sh.deferring = false
		s.sh.applyMail(s)
	}
	s.drainSpare = pend[:0]

	// Deactivation: only involved agents can have gone idle (a lazy agent
	// still holds the work that parked its calendar entry). Tombstones
	// remain in the active slice until the next full-sync compaction.
	for _, id := range s.invIDs {
		a := s.agents[id]
		b := a.Base()
		if b.active && !b.pinned && a.Idle() {
			b.active = false
			s.liveActive--
			s.cal.remove(id)
		}
	}

	// Rekey everything invalidated since the jump was sized: agents past
	// their event tick, downstream agents enqueued during the drain. The
	// sharded runtime pre-warms the horizon memo shard-locally first, so
	// the sequential rekey mostly reads memoized values.
	if s.sh != nil {
		s.sh.precomputeHorizons(s)
	}
	s.rekeyDirty()

	// Phase 2: measurement collection at snapshot boundaries; fullSync
	// above already advanced every active agent to this tick.
	if tick%s.collectEvery == 0 {
		s.Collector.Snapshot(s.clock.NowSeconds())
	}
}

// compactActive drops tombstoned entries from the active slice and restores
// ascending ID order, so full-sync sweeps serve the engine the sorted live
// set. Only the bulk-dense loop leaves tombstones; under the lock-step
// loops this reduces to the sort the per-tick path performs itself.
func (s *Simulation) compactActive() {
	kept := s.active[:0]
	for _, id := range s.active {
		b := s.agents[id].Base()
		if b.active {
			kept = append(kept, id)
		} else {
			b.listed = false
		}
	}
	s.active = kept
	slices.Sort(s.active)
	s.activeSorted = true
	s.sweepStale = true
}

// syncAgent catches a lazily-stepped active agent up to the current tick.
// It is the sequential-phase entry point of the bulk-dense loop (reached
// through AgentBase.Sync and the flow router): any enqueue or
// tick-dependent read must first replay the ticks the involved-only sweeps
// skipped, on state that — by the calendar invariant — holds no event in
// the trailing window. Inactive agents have no queue state evolving, so
// they are left alone (activation re-bases agentTick). The common
// already-current case exits on one comparison, before any dynamic
// dispatch — the hook sits on every enqueue.
func (s *Simulation) syncAgent(id AgentID) {
	if !s.bulkDense {
		return
	}
	now := s.clock.Now()
	if s.sh != nil && s.sh.inSpan {
		// Inside a stretched span "now" is the lane's local tick — the
		// global clock is parked at the span entry barrier. Lanes only ever
		// touch their own agents, so the lane of the target is the caller.
		now = s.sh.lanes[s.sh.shard(id)].tick
	}
	n := now - s.agentTick[id]
	if n <= 0 {
		return
	}
	a := s.agents[id]
	if !a.Base().active {
		return // stale deficit: re-based on the next activation
	}
	s.agentTick[id] = now
	s.advanceAgent(a, now-n, n)
}

// advanceInvolved is the engine-sweep callback of the bulk-dense loop:
// advance one involved agent through any lazy deficit up to the window's
// landing tick (s.advanceTo). It is installed once so per-iteration sweeps
// need no fresh closure; agentTick writes are per-agent and therefore safe
// under parallel engines.
func (s *Simulation) advanceInvolved(a Agent) {
	id := a.ID()
	if n := s.advanceTo - s.agentTick[id]; n > 0 {
		base := s.agentTick[id]
		s.agentTick[id] = s.advanceTo
		s.advanceAgent(a, base, n)
	}
}

// advanceAgent replays n ticks on one agent starting from the base tick
// (the tick its state is currently stepped through), bulk-collapsing
// quiet stretches: each chunk is bounded by the agent's own horizon (the
// same guarded whole-tick conversion the calendar keys use, so the chunk
// can never swallow an event), with single steps resolving the event
// ticks in between — a final single tick skips the horizon scan entirely,
// which is the dominant case in event-dense stretches. The horizon reads
// go through the memo keyed at base, so the first chunk of a window
// reuses the value the preceding rekey computed. Agents without the
// BulkStepper capability replay tick by tick. It runs inside the parallel
// sweep as well as from sequential catch-ups; it only touches the agent's
// own state (including its memo slots).
func (s *Simulation) advanceAgent(a Agent, base, n simtime.Tick) {
	step := s.clock.Step()
	if n == 1 {
		a.Step(step)
		return
	}
	bs, canBulk := a.(BulkStepper)
	for n > 0 {
		if n == 1 {
			a.Step(step)
			return
		}
		if !canBulk {
			a.Step(step)
			n--
			base++
			continue
		}
		k := n
		if h := s.agentHorizon(a, base); !math.IsInf(h, 1) {
			if k = s.clock.WholeTicksBefore(h - ffGuard); k > n {
				k = n
			}
		}
		if k < 1 {
			a.Step(step)
			n--
			base++
			continue
		}
		bs.StepN(int(k), step)
		n -= k
		base += k
	}
}

// ffGuard is the safety margin, in seconds, subtracted from agent horizons
// before converting them to whole ticks. Queue models complete work within
// a sub-epsilon of the exact instant (the eps thresholds in
// internal/queueing and the delay heap), and a replayed jump accumulates
// per-step float error; the guard absorbs both so an event can never fire
// inside the ticks a jump skips. It is orders of magnitude below any
// realistic step size, so it almost never shortens a jump.
const ffGuard = 1e-6

// quietTicks returns how many whole ticks the clock may advance in one
// jump, in [1, limit-now]: the stretch strictly before the earliest
// observable event — a source's next effective poll, an active agent's next
// completion or internal handoff — additionally capped at the next
// collector boundary so snapshots sample (and reset) busy accumulators at
// exactly the ticks the plain loop would.
func (s *Simulation) quietTicks(limit simtime.Tick) simtime.Tick {
	now := s.clock.Now()
	max := limit - now
	if b := nextCollectBoundary(now, s.collectEvery) - now; b < max {
		max = b
	}
	if max <= 1 {
		return 1
	}
	nowSec := s.clock.NowSeconds()
	step := s.clock.Step()

	// Sources first: they are few, and a due source (an active Poisson
	// workload, any SourceFunc) vetoes the jump before the active set is
	// scanned at all.
	pmin := math.Inf(1)
	for _, src := range s.sources {
		if p := src.NextPoll(nowSec); p < pmin {
			pmin = p
		}
	}
	if pmin <= nowSec+step {
		return 1
	}

	// Earliest event on any active agent, bailing out as soon as one is
	// due within the next tick — in busy stretches that is the common case
	// and keeps the scan cheap.
	h := math.Inf(1)
	for _, a := range s.sweep {
		if ah := a.Horizon(); ah < h {
			h = ah
			if h <= step+ffGuard {
				return 1
			}
		}
	}

	k := max
	if !math.IsInf(h, 1) {
		// The event tick itself is single-stepped by a later iteration:
		// the jump must land strictly before it.
		if ke := s.clock.WholeTicksBefore(h - ffGuard); ke < k {
			k = ke
		}
	}
	if !math.IsInf(pmin, 1) {
		// Skipped polls sit at ticks now+1 .. now+k-1; every one must land
		// strictly before the earliest due poll. The jump itself may land
		// on the poll tick — that tick polls normally. The float estimate
		// is corrected against the exact tick-time arithmetic the plain
		// loop uses for its poll timestamps.
		if kp := s.clock.WholeTicksBefore(pmin-nowSec) + 1; kp < k {
			k = kp
		}
		for k > 1 && s.clock.SecondsAt(now+k-1) >= pmin {
			k--
		}
	}
	if k < 1 {
		k = 1
	}
	return k
}

// pollDue runs the due sources' polls and refreshes their schedules. A
// source is due when the current tick has reached its cached due tick; by
// the NextPoll contract every poll strictly before that instant is a no-op,
// so skipping it is exact. Dormant sources (+Inf schedules) stay parked —
// they are re-consulted only through an explicit RearmSource notification
// from whichever callback re-arms them, never by per-iteration polling —
// so iterations where nothing is due cost O(1) regardless of how many
// sources sleep.
func (s *Simulation) pollDue(nowSec float64) {
	now := s.clock.Now()
	if s.srcMin > now {
		return
	}
	n := len(s.sources) // sources added by a poll are first polled next tick
	for i := 0; i < n; i++ {
		if s.srcDue[i] <= now {
			s.sources[i].Poll(s, nowSec)
			s.srcDue[i] = s.srcDueTick(s.sources[i].NextPoll(nowSec), now)
		}
	}
	min := neverTick
	for _, due := range s.srcDue {
		if due < min {
			min = due
		}
	}
	s.srcMin = min
}

// srcDueTick converts a NextPoll instant into the first tick whose poll may
// matter: the first tick at or after p in the exact tick-time arithmetic
// the loop uses for poll timestamps. A source reporting now or earlier
// wants classic per-tick polling and is due again at the next tick; +Inf
// (and schedules beyond any representable run) map to neverTick.
func (s *Simulation) srcDueTick(p float64, now simtime.Tick) simtime.Tick {
	if math.IsInf(p, 1) {
		return neverTick
	}
	nowSec := s.clock.SecondsAt(now)
	if p <= nowSec {
		return now + 1
	}
	k := s.clock.WholeTicksBefore(p - nowSec)
	if k >= 1<<62 {
		return neverTick
	}
	n := now + k + 1
	// Correct the float estimate in both directions: the due tick is the
	// first tick landing at or after p, and every earlier tick must fall
	// strictly before p (those are the polls a jump skips).
	for n > now+1 && s.clock.SecondsAt(n-1) >= p {
		n--
	}
	for s.clock.SecondsAt(n) < p {
		n++
	}
	return n
}

// agentKey converts an agent horizon, observed at tick now, into the
// calendar key: the first tick at which the agent may act. Jumps land
// strictly before it, exactly reproducing the scan loop's per-iteration
// bound (WholeTicksBefore of the guarded horizon).
func (s *Simulation) agentKey(h float64, now simtime.Tick) simtime.Tick {
	if math.IsInf(h, 1) {
		return neverTick
	}
	return now + s.clock.WholeTicksBefore(h-ffGuard) + 1
}

// rekeyDirty recomputes the calendar entry of every agent whose horizon was
// invalidated — enqueued on, drained into, past its event tick, or
// deactivated — and clears the dirty set. This is the O(changed) core of
// the calendar loop: only these agents pay a Horizon call per iteration.
// An agent's horizon is relative to the tick its state has been stepped
// through, so under the bulk-dense loop the key is based at agentTick — for
// agents invalidated through the usual hooks that equals the current tick
// (enqueues sync first, popped-due agents were swept to the landing), but
// a bare MarkDirty on a lazily-stepped agent re-bases correctly too.
func (s *Simulation) rekeyDirty() {
	if len(s.dirty) == 0 {
		return
	}
	now := s.clock.Now()
	for _, id := range s.dirty {
		a := s.agents[id]
		b := a.Base()
		b.dirty = false
		if !b.active {
			s.cal.remove(id)
			continue
		}
		base := now
		if s.bulkDense {
			base = s.agentTick[id]
		}
		s.cal.set(id, s.agentKey(s.agentHorizon(a, base), base))
	}
	s.dirty = s.dirty[:0]
}

// popDue moves every agent whose scheduled event tick has arrived from the
// calendar into the dirty set. Between invalidations an agent's state
// evolves deterministically under Step, so its absolute event tick stays
// valid however far the clock advanced — only agents at (or past, after a
// forced single step) their key can have acted.
func (s *Simulation) popDue(now simtime.Tick) {
	for s.cal.len() > 0 && s.cal.minKey() <= now {
		id := s.cal.popMin()
		b := s.agents[id].Base()
		if !b.dirty {
			b.dirty = true
			s.dirty = append(s.dirty, id)
		}
	}
}

// nextCollectBoundary returns the first collector-snapshot tick strictly
// after now: a window or span standing exactly on a boundary has already
// snapshotted it, so the next synchronization point is one full period
// ahead, never the current tick. The sequential jump sizers (quietTicks,
// quietTicksCal) and the span scheduler (trySpan) must share this
// arithmetic — a drifted bound would let a span swallow a snapshot tick or
// truncate a jump a boundary early.
func nextCollectBoundary(now, every simtime.Tick) simtime.Tick {
	return now + (every - now%every)
}

// quietTicksCal is the calendar-indexed replacement for quietTicks: the
// same jump bound — strictly before the earliest agent event, at or before
// the earliest due poll, capped at the collector boundary and limit — read
// off the calendar head and the cached source schedule in O(1) instead of
// re-scanning every source and active agent.
func (s *Simulation) quietTicksCal(limit simtime.Tick) simtime.Tick {
	now := s.clock.Now()
	max := limit - now
	if b := nextCollectBoundary(now, s.collectEvery) - now; b < max {
		max = b
	}
	if max <= 1 {
		return 1
	}
	// The jump may land exactly on the earliest due poll tick — that tick
	// polls normally; all skipped ticks fall strictly before the schedule.
	if s.srcMin != neverTick {
		if k := s.srcMin - now; k < max {
			max = k
		}
	}
	// The earliest agent event tick itself is single-stepped by a later
	// iteration: the jump lands strictly before it.
	if h := s.cal.minKey(); h != neverTick {
		if k := h - 1 - now; k < max {
			max = k
		}
	}
	if max < 1 {
		return 1
	}
	return max
}

// FastForwardStats reports how many event-horizon jumps the loop has taken
// and how many whole ticks those jumps skipped (beyond the one tick each
// loop iteration always advances).
func (s *Simulation) FastForwardStats() (jumps, skippedTicks uint64) {
	return s.jumps, s.skipped
}

// RunStats is a point-in-time snapshot of a simulation's run counters — the
// uniform harvest the experiment layer folds into every Result so scenario
// code stops re-assembling the numbers from individual accessors.
type RunStats struct {
	// Seconds is the simulated time reached; Ticks the whole steps taken.
	Seconds float64 `json:"seconds"`
	Ticks   int64   `json:"ticks"`
	// CompletedOps counts finished operations — the headline number of the
	// engine determinism contract.
	CompletedOps uint64 `json:"completed_ops"`
	// ActiveFlows / ActiveAgents describe the in-flight state at snapshot
	// time (zero after a drained run).
	ActiveFlows  int `json:"active_flows"`
	ActiveAgents int `json:"active_agents"`
	// Agents is the registered agent population.
	Agents int `json:"agents"`
	// Jumps / SkippedTicks are the event-horizon fast-forward statistics:
	// how many jumps the loop took and how many whole ticks they skipped.
	Jumps        uint64 `json:"jumps"`
	SkippedTicks uint64 `json:"skipped_ticks"`
	// Barriers counts global synchronization points of the sharded run
	// loop: one per classic window, one per stretched span. Zero for
	// non-sharded runs. WindowsStretched counts the shard-local windows
	// executed inside stretched spans — the windows that did NOT pay a
	// barrier; ShardStretch breaks them down per shard. The stretch ratio
	// (WindowsStretched+Barriers)/Barriers is the windows-per-barrier win
	// of spending the WAN lookahead.
	Barriers         uint64   `json:"barriers,omitempty"`
	WindowsStretched uint64   `json:"windows_stretched,omitempty"`
	ShardStretch     []uint64 `json:"shard_stretch,omitempty"`
	// Handoffs counts the barrier phases and spans that were sent through
	// the engine's RunShards because at least two shards had work; the
	// rest ran on the calling goroutine. Zero for non-sharded runs.
	Handoffs uint64 `json:"handoffs,omitempty"`
	// MailboxApplied / MailboxMinSlack mirror MailboxAudit: cross-shard
	// hand-offs applied through the shard mailboxes, and the minimum slack
	// (due tick minus apply tick) observed across them. MailboxMinSlack is
	// meaningful only when MailboxApplied > 0.
	MailboxApplied  uint64 `json:"mailbox_applied,omitempty"`
	MailboxMinSlack int64  `json:"mailbox_min_slack,omitempty"`
}

// Stats snapshots the simulation's run counters.
func (s *Simulation) Stats() RunStats {
	st := RunStats{
		Seconds:      s.clock.NowSeconds(),
		Ticks:        int64(s.clock.Now()),
		CompletedOps: s.completedOps,
		ActiveFlows:  s.activeFlows,
		ActiveAgents: s.liveActive,
		Agents:       len(s.agents),
		Jumps:        s.jumps,
		SkippedTicks: s.skipped,
		Barriers:     s.barriers,
	}
	if s.sh != nil {
		st.WindowsStretched = s.stretched
		st.Handoffs = s.sh.handoffs
		if s.stretched > 0 {
			st.ShardStretch = slices.Clone(s.sh.shardWindows)
		}
		if applied, minSlack, ok := s.MailboxAudit(); ok {
			st.MailboxApplied = applied
			st.MailboxMinSlack = int64(minSlack)
		}
	}
	return st
}

// MailboxAudit reports the cross-shard delivery telemetry of the sharded
// runtime: how many hand-offs were applied through the shard mailboxes —
// barrier-drain deferrals and mid-span cross-shard posts alike — and the
// minimum slack (due tick minus the tick the entry was applied at, in
// ticks) observed across all of them. A negative minimum would mean a
// message was applied after its WAN-delayed due instant — past the point
// where its absence could have changed the receiver's state — the
// conservative-synchronization violation the property tests pin.
//
// The contract is exactly two shapes: (0, 0, false) when the sharded
// runtime is off or no message was ever applied, and
// (applied, minSlack, true) otherwise. The minimum folds only shards that
// applied at least one message — a shard that received no traffic has no
// slack sample and must not drag the minimum to its zero-initialized
// counter; TestMailboxAuditContract pins both shapes.
func (s *Simulation) MailboxAudit() (applied uint64, minSlack simtime.Tick, ok bool) {
	if s.sh == nil {
		return 0, 0, false
	}
	minSlack = neverTick
	for i := range s.sh.bufs {
		b := &s.sh.bufs[i]
		applied += b.mailApplied
		if b.mailApplied > 0 && b.mailMinSlack < minSlack {
			minSlack = b.mailMinSlack
		}
	}
	if applied == 0 {
		return 0, 0, false
	}
	return applied, minSlack, true
}

// RunFor advances the simulation by d simulated seconds.
func (s *Simulation) RunFor(d float64) {
	end := s.clock.Now() + s.clock.TicksIn(d)
	for s.clock.Now() < end {
		s.tick(end)
	}
}

// RunUntilIdle runs until no flows remain in flight and all agents are
// idle, or maxSeconds of simulated time elapse. It returns an error on
// timeout so stuck cascades surface in tests instead of hanging.
func (s *Simulation) RunUntilIdle(maxSeconds float64) error {
	deadline := s.clock.Now() + s.clock.TicksIn(maxSeconds)
	for s.clock.Now() < deadline {
		s.tick(deadline)
		if s.activeFlows == 0 && s.agentsIdle() {
			return nil
		}
	}
	return fmt.Errorf("core: %d flows still active after %v simulated seconds", s.activeFlows, maxSeconds)
}

// agentsIdle reports whether no agent holds in-flight work. Deactivation
// keeps every non-idle agent in the active set, so only that set — after a
// tick, just the pinned agents plus drain-phase activations — needs
// checking, replacing the full-population scan. Tombstones the bulk-dense
// loop leaves between compactions are skipped.
func (s *Simulation) agentsIdle() bool {
	for _, id := range s.active {
		if s.agents[id].Base().active && !s.agents[id].Idle() {
			return false
		}
	}
	return true
}

// Shutdown releases engine resources. The simulation must not tick after.
func (s *Simulation) Shutdown() { s.engine.Shutdown() }
