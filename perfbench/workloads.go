package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/scenarios"
	"repro/internal/topology"
)

// rep is what one run of a workload produced: its set-up time, the cost
// of its timed part, and per simulation (one, or one per grid point) the
// digest and any correctness failure.
type rep struct {
	setup   []float64
	timed   cost
	ops     uint64
	digests []string
	bad     map[int]string
	results []*experiment.Result
	// detail records set-up facts a digest mismatch is reported with.
	detail string
	// stats sums the simulations' run counters over the timed part.
	stats core.RunStats
	// The fields below are filled by traced runs only.
	layer   map[string]float64
	windows []float64 // host seconds per collector window of the timed part
	points  []float64 // host seconds per simulation (compile + execute)
	busy    float64   // share of the run's wall time the points kept workers busy
}

func (r *rep) fail(i int, format string, args ...any) {
	if r.bad == nil {
		r.bad = map[int]string{}
	}
	if _, dup := r.bad[i]; !dup {
		r.bad[i] = fmt.Sprintf(format, args...)
	}
}

// bench is one benchmark workload: an input set and how to run it. run
// executes it once; sims is the number of simulations (digests) one run
// produces.
type bench struct {
	name string
	sims int
	// input is generated once per process from the seed; it is the
	// workload's document (nil when the workload is built in Go).
	input func(seed uint64) ([]byte, error)
	run   func(seed uint64, input []byte, tr *tracer, root int) (*rep, error)
	// reference, when set, produces the digests every run must reproduce:
	// peak-sharded must match the sequential engine bit for bit.
	reference func(seed uint64) (*rep, error)
}

// nproc is the core count the benchmark may use; the sharded engine and
// the sweep worker pool get exactly this many workers.
var nproc = runtime.NumCPU()

// workloads are the workloads BENCHMARK.json lists.
var workloads = []bench{
	{name: "daynight", sims: 1, input: dayNightDoc, run: docRun("CAD", "NA", nil)},
	{name: "sweep", sims: sweepPoints(), input: chaosDoc, run: sweepRun},
	{
		name: "chaos-sharded", sims: 1, input: shardedDoc, run: docRun("PDM", "EU", shardedCheck),
		reference: func(seed uint64) (*rep, error) {
			raw, err := chaosPlatform(seed, shardedUsers, shardedRunSec, "sequential")
			if err != nil {
				return nil, err
			}
			return docRun("PDM", "EU", shardedCheck)(seed, raw, nil, 0)
		},
	},
}

// withheld are workloads the benchmark runs on request but BENCHMARK.json
// does not list: the consolidation peak is not reproducible, because
// topology.Build registers client pools in map order, so their runs fail
// the digest checks (README.md, "Withheld workloads").
var withheld = []bench{
	{name: "peak", sims: 1, run: peakRun("sequential")},
	{
		name: "peak-sharded", sims: 1, run: peakRun(fmt.Sprintf("sharded:%d", nproc)),
		reference: func(seed uint64) (*rep, error) { return peakRun("sequential")(seed, nil, nil, 0) },
	},
}

func findWorkload(name string) (bench, bool) {
	for _, w := range append(workloads, withheld...) {
		if w.name == name {
			return w, true
		}
	}
	return bench{}, false
}

// shardedCheck asserts that the chaos-sharded run applied its Atlantic
// fault at exactly the configured instants.
func shardedCheck(res *experiment.Result) error { return checkFault(res, 1) }

// peakRun builds the consolidation platform on the given engine, warms it
// up untimed, and times the peak window.
func peakRun(engine string) func(uint64, []byte, *tracer, int) (*rep, error) {
	return func(seed uint64, _ []byte, tr *tracer, root int) (*rep, error) {
		mk, err := experiment.ParseEngine(engine)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		r := &rep{layer: map[string]float64{}}
		cs, err := setUp(r, tr, root, "scenarios.NewConsolidation", func() (*scenarios.CaseStudy, error) {
			cfg := peakConfig(seed)
			if mk != nil {
				cfg.Engine = mk()
			}
			cs, err := scenarios.NewConsolidation(cfg)
			if err != nil && cfg.Engine != nil {
				cfg.Engine.Shutdown()
			}
			return cs, err
		}, func(cs *scenarios.CaseStudy) { cs.Sim.Shutdown() })
		if err != nil {
			return nil, err
		}
		defer cs.Sim.Shutdown()
		r.detail = clientOrder(cs.Inf)

		advance(cs.Sim, peakWarmSec, tr, root, nil)
		st0 := cs.Sim.Stats()
		runtime.GC()
		sp := tr.begin("experiment.execute", root)
		m := readMeter()
		agents, flows := advance(cs.Sim, peakRunSec, tr, sp, &r.windows)
		r.timed = m.finish()
		tr.end(sp)
		r.stats = statsDelta(st0, cs.Sim.Stats())
		r.ops = r.stats.CompletedOps

		res := harvest(cs.Sim, seed)
		r.add(res)
		if tr == nil {
			return r, nil
		}
		compile := median(r.setup)
		r.layer["experiment.compile_s"] = compile
		r.layer["experiment.execute_s"] = r.timed.wall
		r.points = []float64{compile + r.timed.wall}
		r.busy = (sum(r.setup) + r.timed.wall) / time.Since(t0).Seconds()
		r.layer["core.active_agents_mean"] = mean(agents)
		r.layer["core.active_flows_mean"] = mean(flows)
		r.layer["topology.agents"] = float64(cs.Sim.AgentCount())
		// The platform-only constructor (no clients, no daemons) is the
		// topology build as the scenario performs it.
		bare := peakConfig(seed)
		bare.DisableClients, bare.DisableBackground = true, true
		build := r.timeLayer(tr, root, "topology.build_s", "topology.Build", func() error {
			b, err := scenarios.NewConsolidation(bare)
			if err == nil {
				b.Sim.Shutdown()
			}
			return err
		})
		return r, errors.Join(build, r.layerProbes(tr, root, cs.Inf, "CAD", "NA"))
	}
}

// clientOrder reports the order in which topology.Build registered the
// client pools, read off their agent IDs. The order decides agent
// numbering, so two builds of one platform that register their pools in
// different orders may simulate differently.
func clientOrder(inf *topology.Infrastructure) string {
	var dcs []string
	for _, name := range inf.DCNames() {
		if inf.DC(name).Clients != nil {
			dcs = append(dcs, name)
		}
	}
	sort.Slice(dcs, func(i, j int) bool {
		return inf.DC(dcs[i]).Clients.Local.ID() < inf.DC(dcs[j]).Clients.Local.ID()
	})
	return "client pools registered in order " + strings.Join(dcs, ",")
}

// docRun decodes and compiles a workload document (set-up), then executes
// its whole simulated span as the timed part. check, when set, asserts
// workload-specific facts of the result; ops and dc name the operation mix
// the traced run's layer probes build.
func docRun(ops, dc string, check func(*experiment.Result) error) func(uint64, []byte, *tracer, int) (*rep, error) {
	return func(seed uint64, input []byte, tr *tracer, root int) (*rep, error) {
		t0 := time.Now()
		r := &rep{layer: map[string]float64{}}
		var doc *config.Document
		var fromDoc, compile []float64
		run, err := setUp(r, tr, root, "perfbench.setup", func() (*experiment.Run, error) {
			var err error
			if doc, err = config.Decode(bytes.NewReader(input)); err != nil {
				return nil, err
			}
			sp := tr.begin("experiment.FromDocument", root)
			t1 := time.Now()
			e, err := experiment.FromDocument(doc)
			fromDoc = append(fromDoc, time.Since(t1).Seconds())
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("experiment.Compile", root)
			t1 = time.Now()
			run, err := e.Compile()
			compile = append(compile, time.Since(t1).Seconds())
			tr.end(sp)
			return run, err
		}, func(run *experiment.Run) { run.Sim.Shutdown() })
		if err != nil {
			return nil, err
		}
		defer run.Sim.Shutdown()

		var res *experiment.Result
		var agents, flows []float64
		runtime.GC()
		sp := tr.begin("experiment.execute", root)
		m := readMeter()
		if tr == nil {
			res, err = run.Execute()
		} else {
			// The traced run advances window by window — bit-identical to
			// Execute's single RunFor, which the digest check confirms.
			agents, flows = advance(run.Sim, run.Experiment.DurationSeconds(), tr, sp, &r.windows)
			res = harvest(run.Sim, run.Experiment.Seed())
			if run.Faults != nil {
				res.Faults = run.Faults.Finalize()
			}
		}
		r.timed = m.finish()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		r.stats = res.Stats
		r.ops = res.Stats.CompletedOps
		r.add(res)
		if check != nil {
			if err := check(res); err != nil {
				r.fail(0, "%v", err)
			}
		}
		if tr == nil {
			return r, nil
		}
		r.layer["experiment.compile_s"] = median(compile)
		r.layer["experiment.execute_s"] = r.timed.wall
		r.points = []float64{median(compile) + r.timed.wall}
		r.busy = (sum(compile) + r.timed.wall) / time.Since(t0).Seconds()
		r.layer["config.from_document_s"] = median(fromDoc)
		r.layer["core.active_agents_mean"] = mean(agents)
		r.layer["core.active_flows_mean"] = mean(flows)
		r.layer["topology.agents"] = float64(run.Sim.AgentCount())
		build := r.timeLayer(tr, root, "topology.build_s", "topology.Build", func() error {
			return buildTopology(doc, seed)
		})
		return r, errors.Join(build, r.layerProbes(tr, root, run.Inf, ops, dc))
	}
}

// sweepRun decodes the chaos document and validates the what-if grid
// (set-up), then runs every grid point on nproc workers (timed part).
func sweepRun(seed uint64, input []byte, tr *tracer, root int) (*rep, error) {
	r := &rep{layer: map[string]float64{}}
	var doc *config.Document
	var hooks *pointHooks
	s, err := setUp(r, tr, root, "perfbench.setup", func() (*experiment.Sweep, error) {
		var err error
		if doc, err = config.Decode(bytes.NewReader(input)); err != nil {
			return nil, err
		}
		base := func() (*experiment.Experiment, error) { return experiment.FromDocument(doc) }
		if tr != nil {
			hooks = &pointHooks{tr: tr, parent: root}
			base = hooks.wrap(base)
		}
		s := experiment.NewSweep("whatif", base)
		for _, ax := range sweepAxes {
			s.Vary(ax.path, ax.values...)
		}
		return s, s.Validate()
	}, nil)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	sp := tr.begin("experiment.Sweep.Run", root)
	m := readMeter()
	sr, runErr := s.Run(nproc)
	r.timed = m.finish()
	tr.end(sp)
	if sr == nil {
		return nil, runErr
	}
	if len(sr.Points) != sweepPoints() {
		return nil, fmt.Errorf("sweep ran %d points, want %d", len(sr.Points), sweepPoints())
	}
	var agents, flows []float64
	for i, pt := range sr.Points {
		if pt.Err != nil {
			r.digests = append(r.digests, "")
			r.fail(i, "point %d: %v", i, pt.Err)
			continue
		}
		r.add(pt.Res)
		if err := checkPoint(pt); err != nil {
			r.fail(i, "point %d: %v", i, err)
		}
		st := pt.Res.Stats
		r.ops += st.CompletedOps
		r.stats = statsSum(r.stats, st)
		agents = append(agents, float64(st.ActiveAgents))
		flows = append(flows, float64(st.ActiveFlows))
	}
	if tr == nil {
		return r, nil
	}
	hooks.spans(tr, sp, r)
	r.layer["core.active_agents_mean"] = mean(agents)
	r.layer["core.active_flows_mean"] = mean(flows)

	// Layer calls buried inside each point's compile are timed once on a
	// throwaway compile of the same document.
	e, err := experiment.FromDocument(doc)
	if err != nil {
		return nil, err
	}
	run, err := e.Compile()
	if err != nil {
		return nil, err
	}
	defer run.Sim.Shutdown()
	r.layer["topology.agents"] = float64(run.Sim.AgentCount())
	build := r.timeLayer(tr, root, "topology.build_s", "topology.Build", func() error {
		return buildTopology(doc, seed)
	})
	segments := r.timeLayer(tr, root, "fluid.build_segments_s", "fluid.BuildSegments", func() error {
		inf := run.Inf
		st, err := fluid.DeriveStation(inf, inf.DC("EU"), inf.DC("NA"), apps.PDMOps(), nil, step)
		if err != nil {
			return err
		}
		users := doc.Workloads[0].Users
		_, err = fluid.BuildSegments(users, doc.Workloads[0].OpsPerUserHour, step, sweepRunSec,
			fluid.Config{Above: fluidAbove}, st, []fluid.Window{{Start: faultAt, End: faultAt + faultFor}})
		return err
	})
	return r, errors.Join(build, segments, r.layerProbes(tr, root, run.Inf, "PDM", "EU"))
}

// setupRepeats is how many times each run sets its workload up; set-up
// takes milliseconds, so one sample per run would be mostly noise.
const setupRepeats = 5

// setUp builds the workload setupRepeats times from a collected heap,
// records each build's host seconds in r.setup, and returns the last
// build; release, when set, frees each earlier one.
func setUp[T any](r *rep, tr *tracer, root int, span string, build func() (T, error), release func(T)) (T, error) {
	var last T
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		sp := tr.begin(span, root)
		t0 := time.Now()
		b, err := build()
		r.setup = append(r.setup, time.Since(t0).Seconds())
		tr.end(sp)
		if i > 0 && release != nil {
			release(last)
		}
		if err != nil {
			return b, err
		}
		last = b
	}
	return last, nil
}

// pointHooks times each sweep point from outside the experiment package:
// the engine factory runs first in Compile, the setup hook last, and the
// engine's Shutdown ends the point's Run.
type pointHooks struct {
	tr      *tracer
	parent  int
	mu      sync.Mutex
	fromDoc []float64
	done    []*pointTimes
}

type pointTimes struct{ start, compiled, end time.Time }

// timedEngine is the sequential engine with a clock on Shutdown.
type timedEngine struct {
	core.SequentialEngine
	h  *pointHooks
	pt *pointTimes
}

func (t *timedEngine) Shutdown() {
	t.pt.end = time.Now()
	t.h.mu.Lock()
	t.h.done = append(t.h.done, t.pt)
	t.h.mu.Unlock()
}

func (h *pointHooks) wrap(base func() (*experiment.Experiment, error)) func() (*experiment.Experiment, error) {
	return func() (*experiment.Experiment, error) {
		sp := h.tr.begin("experiment.FromDocument", h.parent)
		e, err := base()
		d := h.tr.end(sp)
		h.mu.Lock()
		h.fromDoc = append(h.fromDoc, d)
		h.mu.Unlock()
		if err != nil {
			return nil, err
		}
		pt := &pointTimes{}
		opts := []experiment.Option{
			experiment.WithEngine(func() core.Engine {
				pt.start = time.Now()
				return &timedEngine{h: h, pt: pt}
			}),
			experiment.WithSetup(func(*experiment.Run) error {
				pt.compiled = time.Now()
				return nil
			}),
		}
		for _, opt := range opts {
			if err := opt(e); err != nil {
				return nil, err
			}
		}
		return e, nil
	}
}

// spans turns the recorded point times into spans under parent and fills
// the point-level layer metrics.
func (h *pointHooks) spans(tr *tracer, parent int, r *rep) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var compile, execute []float64
	busy := 0.0
	windowsPerPoint := sweepRunSec / collectSec
	for _, pt := range h.done {
		id := tr.record("experiment.sweep.point", parent, pt.start, pt.end)
		tr.record("experiment.Compile", id, pt.start, pt.compiled)
		tr.record("experiment.Execute", id, pt.compiled, pt.end)
		c, x := pt.compiled.Sub(pt.start).Seconds(), pt.end.Sub(pt.compiled).Seconds()
		compile = append(compile, c)
		execute = append(execute, x)
		r.points = append(r.points, c+x)
		r.windows = append(r.windows, x/windowsPerPoint)
		busy += c + x
	}
	r.busy = busy / (float64(nproc) * r.timed.wall)
	r.layer["experiment.compile_s"] = median(compile)
	r.layer["experiment.execute_s"] = median(execute)
	r.layer["config.from_document_s"] = median(h.fromDoc)
}

// layerProbes times the layer calls every workload shares, on the
// finished run's infrastructure (the run's digest is already taken, so
// the calls cannot perturb it): building the operation mix named ops for
// a workload at dc — the calibrated CAD mix, or the sweep's static PDM
// mix — and partitioning the platform for a sharded run.
func (r *rep) layerProbes(tr *tracer, root int, inf *topology.Infrastructure, ops, dc string) error {
	calibrate := r.timeLayer(tr, root, "apps.calibrate_s", "apps.ops", func() error {
		fn, err := experiment.OpsByName(ops, dc)
		if err != nil {
			return err
		}
		_, err = fn(inf, step)
		return err
	})
	partition := r.timeLayer(tr, root, "topology.partition_s", "topology.PartitionByDC", func() error {
		// The shard count a sharded run would use: nproc, capped at
		// one data center per shard.
		_, err := inf.PartitionByDC(min(nproc, len(inf.DCNames())))
		return err
	})
	return errors.Join(calibrate, partition)
}

// timeLayer runs fn inside a span, stores its host seconds as layer
// metric name, and returns fn's error.
func (r *rep) timeLayer(tr *tracer, parent int, metric, span string, fn func() error) error {
	sp := tr.begin(span, parent)
	t0 := time.Now()
	err := fn()
	r.layer[metric] = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", span, err)
	}
	return nil
}

func buildTopology(doc *config.Document, seed uint64) error {
	sim := core.NewSimulation(core.Config{
		Step: step, CollectEvery: int(collectSec / step), Seed: seed,
	})
	defer sim.Shutdown()
	_, err := topology.Build(sim, doc.Infrastructure)
	return err
}

// advance runs the simulation for sec simulated seconds. Untraced it is a
// single RunFor; traced it advances one collector window at a time inside
// a span, appending each window's host seconds to windows and sampling the
// in-flight agent and flow counts at every window end.
func advance(sim *core.Simulation, sec float64, tr *tracer, parent int, windows *[]float64) (agents, flows []float64) {
	if tr == nil {
		sim.RunFor(sec)
		return nil, nil
	}
	for left := sec; left > 0; left -= collectSec {
		sp := tr.begin("core.window", parent)
		sim.RunFor(min(collectSec, left))
		d := tr.end(sp)
		if windows != nil {
			*windows = append(*windows, d)
		}
		agents = append(agents, float64(sim.ActiveAgents()))
		flows = append(flows, float64(sim.ActiveFlows()))
	}
	return agents, flows
}

// harvest assembles the uniform Result of a simulation advanced by hand,
// exactly as experiment.Run.Execute harvests one: fault: series belong to
// the fault report, not to the digested series set.
func harvest(sim *core.Simulation, seed uint64) *experiment.Result {
	res := &experiment.Result{
		Seed:      seed,
		Stats:     sim.Stats(),
		Series:    map[string]*metrics.Series{},
		Responses: sim.Responses,
	}
	for _, k := range sim.Collector.Keys() {
		if !strings.HasPrefix(k, "fault:") {
			res.Series[k] = sim.Collector.Series(k)
		}
	}
	return res
}

// add records one simulation's digest and checks its invariants.
func (r *rep) add(res *experiment.Result) {
	i := len(r.digests)
	r.digests = append(r.digests, res.Digest())
	r.results = append(r.results, res)
	if err := checkResult(res); err != nil {
		r.fail(i, "%v", err)
	}
}

// statsDelta is the counter progress from a to b; the mailbox slack is a
// running minimum, so b's value stands.
func statsDelta(a, b core.RunStats) core.RunStats {
	return core.RunStats{
		Seconds:          b.Seconds - a.Seconds,
		Ticks:            b.Ticks - a.Ticks,
		CompletedOps:     b.CompletedOps - a.CompletedOps,
		ActiveFlows:      b.ActiveFlows,
		ActiveAgents:     b.ActiveAgents,
		Agents:           b.Agents,
		Jumps:            b.Jumps - a.Jumps,
		SkippedTicks:     b.SkippedTicks - a.SkippedTicks,
		Barriers:         b.Barriers - a.Barriers,
		WindowsStretched: b.WindowsStretched - a.WindowsStretched,
		MailboxApplied:   b.MailboxApplied - a.MailboxApplied,
		MailboxMinSlack:  b.MailboxMinSlack,
	}
}

// statsSum accumulates the counters of independent simulations.
func statsSum(a, b core.RunStats) core.RunStats {
	a.Seconds += b.Seconds
	a.Ticks += b.Ticks
	a.CompletedOps += b.CompletedOps
	a.Jumps += b.Jumps
	a.SkippedTicks += b.SkippedTicks
	a.Barriers += b.Barriers
	a.WindowsStretched += b.WindowsStretched
	a.MailboxApplied += b.MailboxApplied
	if b.MailboxApplied > 0 && (a.MailboxMinSlack == 0 || b.MailboxMinSlack < a.MailboxMinSlack) {
		a.MailboxMinSlack = b.MailboxMinSlack
	}
	return a
}
