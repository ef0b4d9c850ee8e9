// Command perfbench is the repository's benchmark: it runs one workload
// through the simulator's public entry points for a fixed host-time
// budget, checks every simulated result against the bit-exact digest
// contract and physical invariants, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced run) as one JSON
// object on the last line of standard output. README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// metricDef names one printed metric and its unit; BENCHMARK.json lists
// the same names (a self-test keeps them in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"ns_per_op", "ns"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"max_rss_mb", "MB"},
	{"points_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"experiment.compile_s", "s"},
	{"experiment.execute_s", "s"},
	{"experiment.sweep.points", "count"},
	{"experiment.sweep.point_s_p50", "s"},
	{"experiment.sweep.point_s_p90", "s"},
	{"experiment.sweep.busy_frac", "ratio"},
	{"config.from_document_s", "s"},
	{"apps.calibrate_s", "s"},
	{"topology.build_s", "s"},
	{"topology.agents", "count"},
	{"topology.partition_s", "s"},
	{"fluid.build_segments_s", "s"},
	{"fluid.points", "count"},
	{"fluid.fluid_time_frac", "ratio"},
	{"faults.injected_points", "count"},
	{"faults.stalled_ops", "count"},
	{"faults.peak_backlog", "count"},
	{"core.windows", "count"},
	{"core.window_s_p50", "s"},
	{"core.window_s_p90", "s"},
	{"core.ticks", "count"},
	{"core.skipped_ticks", "count"},
	{"core.skip_frac", "ratio"},
	{"core.jumps", "count"},
	{"core.active_agents_mean", "count"},
	{"core.active_flows_mean", "count"},
	{"core.completed_ops", "count"},
	{"dispatch.barriers", "count"},
	{"dispatch.windows_stretched", "count"},
	{"dispatch.stretch_ratio", "ratio"},
	{"dispatch.mailbox_applied", "count"},
	{"dispatch.mailbox_min_slack", "ticks"},
	{"dispatch.cpu_per_wall", "ratio"},
	{"runtime.mallocs", "count"},
	{"runtime.heap_alloc_bytes", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"metrics.response_samples", "count"},
	{"metrics.series_samples", "count"},
	{"metrics.resp_p50_s", "s"},
	{"metrics.resp_p90_s", "s"},
	{"hardware.cpu_util_max", "ratio"},
	{"hardware.link_util_max", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// maxLoop bounds the measuring loop whatever --seconds says, so one run
// always ends well inside its time limit.
const maxLoop = 150 * time.Second

// minReps is the fewest runs of each kind (untraced, traced) a
// measurement takes, so every median has several samples.
const minReps = 3

func main() {
	name := flag.String("workload", "", "workload to run: daynight, sweep or chaos-sharded (peak and peak-sharded are withheld)")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	host := newHostRecord(w.name, *seed, *trace == 1)
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	o, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), tr, minReps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, r := range o.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", r)
	}
	if tr != nil {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.ndjson", w.name, *seed))
		if err := tr.write(path, host); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	hostLine, err := json.Marshal(map[string]hostRecord{"host": host})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(hostLine))
	line, err := o.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// outcome is a measurement's result: simulations attempted and failed,
// the failure reasons, and the metric values by name.
type outcome struct {
	attempted, failed int
	reasons           []string
	metrics           map[string]float64
	defs              []metricDef
}

// measure runs workload w repeatedly for budget host time (tracing every
// other run when tr is set), checks every run, and computes the metrics.
func measure(w bench, seed uint64, budget time.Duration, tr *tracer, minReps int) (*outcome, error) {
	var input []byte
	if w.input != nil {
		var err error
		if input, err = w.input(seed); err != nil {
			return nil, err
		}
	}
	var runs []attempt
	if w.reference != nil {
		r, err := guard(func() (*rep, error) { return w.reference(seed) })
		runs = append(runs, attempt{r, err})
	}
	start := time.Now()
	var plain, traced []*rep
	for i := 0; ; i++ {
		var t *tracer
		if tr != nil && i%2 == 1 {
			t = tr
		}
		root := t.begin("perfbench.run", 0)
		r, err := guard(func() (*rep, error) { return w.run(seed, input, t, root) })
		t.end(root)
		runs = append(runs, attempt{r, err})
		if err == nil {
			// Only the last traced run's simulated outputs are reported;
			// holding every run's results would grow the heap, and with it
			// GC work and the resident set, with the number of runs.
			if t == nil {
				r.results = nil
				plain = append(plain, r)
			} else {
				if n := len(traced); n > 0 {
					traced[n-1].results = nil
				}
				traced = append(traced, r)
			}
		}
		elapsed := time.Since(start)
		enough := len(plain) >= minReps && (tr == nil || len(traced) >= minReps)
		if elapsed > maxLoop || (elapsed >= budget && enough) || (elapsed >= budget && i >= 4*minReps) {
			break
		}
	}
	pinned := ""
	if seed == defaultSeed {
		pinned = expectedDigest[w.name]
	}
	o := &outcome{}
	o.score(w, runs, pinned)
	if tr == nil {
		o.defs, o.metrics = endToEnd, endToEndMetrics(w, plain)
	} else {
		o.defs, o.metrics = perLayer, perLayerMetrics(plain, traced)
	}
	return o, nil
}

// guard runs one workload run, turning a panic into an error.
func guard(fn func() (*rep, error)) (r *rep, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// attempt is one run of a workload and its error.
type attempt struct {
	r   *rep
	err error
}

// score counts every run's simulations as attempted, and as failed every
// simulation of a run that errored, and every simulation whose checks
// failed, whose digest differs from the consensus — the digest most runs
// of the process produced for that simulation — or, at the default seed,
// whose run's digest differs from the pinned one. Measuring against the
// consensus rather than the first run counts the runs that deviate, not
// the runs that happen to disagree with a deviant first one.
func (o *outcome) score(w bench, runs []attempt, pinned string) {
	consensus := make([]string, w.sims)
	for i := range consensus {
		count := map[string]int{}
		for _, a := range runs {
			if a.err == nil && i < len(a.r.digests) {
				d := a.r.digests[i]
				if count[d]++; count[d] > count[consensus[i]] {
					consensus[i] = d
				}
			}
		}
	}
	agreeing := ""
	for _, a := range runs {
		if a.err == nil && slices.Equal(a.r.digests, consensus) {
			agreeing = a.r.detail
			break
		}
	}
	for _, a := range runs {
		o.attempted += w.sims
		r := a.r
		if a.err != nil {
			o.failed += w.sims
			o.reasons = append(o.reasons, fmt.Sprintf("%s: %v", w.name, a.err))
			continue
		}
		for i, d := range r.digests {
			if i >= w.sims || d != consensus[i] {
				r.fail(i, "simulation %d: digest %s differs from the consensus %s%s",
					i, d, consensus[min(i, w.sims-1)], contrast(r.detail, agreeing))
			}
		}
		if len(r.digests) != w.sims {
			r.fail(len(r.digests), "run produced %d digests, want %d", len(r.digests), w.sims)
		}
		if pinned != "" && combine(r.digests) != pinned {
			for i := range r.digests {
				r.fail(i, "digest differs from the pinned default-seed digest %s%s", pinned, contrast(r.detail, ""))
			}
		}
		o.failed += min(len(r.bad), w.sims)
		for _, reason := range r.bad {
			o.reasons = append(o.reasons, w.name+": "+reason)
		}
	}
}

// contrast describes how a failing run's set-up differed from that of a
// run that reproduced the consensus, when the workload records it.
func contrast(run, agreeing string) string {
	switch {
	case run == "":
		return ""
	case agreeing == "" || agreeing == run:
		return " (" + run + ")"
	}
	return fmt.Sprintf(" (this run: %s; a consensus run: %s)", run, agreeing)
}

// json renders the result line.
func (o *outcome) json() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, d := range o.defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		ms[d.name] = value{v, d.unit}
	}
	if len(o.metrics) != len(o.defs) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(o.metrics), len(o.defs))
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, ms})
}
