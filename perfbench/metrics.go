package main

import (
	"strings"

	"repro/internal/experiment"
)

// endToEndMetrics reduces the untraced runs to the end-to-end metrics:
// medians over runs, each run contributing one sample.
func endToEndMetrics(w bench, reps []*rep) map[string]float64 {
	var setup, run, cpu, nsOp, allocsOp, bytesOp, pps []float64
	for _, r := range reps {
		setup = append(setup, r.setup...)
		run = append(run, r.timed.wall)
		cpu = append(cpu, r.timed.cpu)
		pps = append(pps, float64(w.sims)/r.timed.wall)
		if ops := float64(r.ops); ops > 0 {
			nsOp = append(nsOp, r.timed.wall*1e9/ops)
			allocsOp = append(allocsOp, float64(r.timed.mallocs)/ops)
			bytesOp = append(bytesOp, float64(r.timed.bytes)/ops)
		}
	}
	return map[string]float64{
		"setup_s":       median(setup),
		"run_s":         median(run),
		"cpu_s":         median(cpu),
		"ns_per_op":     median(nsOp),
		"allocs_per_op": median(allocsOp),
		"bytes_per_op":  median(bytesOp),
		"max_rss_mb":    maxRSSMB(),
		"points_per_s":  median(pps),
	}
}

// perLayerMetrics reduces the traced runs to the per-layer metrics. Layer
// timings are medians over traced runs; the simulated outputs are the same
// in every run (their digests agree), so they are read off the last one.
// trace.overhead_frac compares the traced runs' timed part with the
// untraced runs made alongside them.
func perLayerMetrics(plain, traced []*rep) map[string]float64 {
	m := map[string]float64{}
	if len(traced) == 0 {
		return m
	}
	perRep := func(f func(*rep) float64) float64 {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = f(r)
		}
		return median(xs)
	}
	for _, d := range perLayer {
		if _, ok := traced[0].layer[d.name]; ok {
			name := d.name
			m[name] = perRep(func(r *rep) float64 { return r.layer[name] })
		}
	}
	for _, name := range []string{"config.from_document_s", "fluid.build_segments_s"} {
		if _, ok := m[name]; !ok {
			m[name] = 0 // the workload never calls this layer
		}
	}

	var points, windows []float64
	for _, r := range traced {
		points = append(points, r.points...)
		windows = append(windows, r.windows...)
	}
	m["experiment.sweep.points"] = float64(len(points))
	m["experiment.sweep.point_s_p50"] = median(points)
	m["experiment.sweep.point_s_p90"], _ = tailPercentile(points, 0.9)
	m["experiment.sweep.busy_frac"] = perRep(func(r *rep) float64 { return r.busy })
	m["core.windows"] = float64(len(windows))
	m["core.window_s_p50"] = median(windows)
	m["core.window_s_p90"], _ = tailPercentile(windows, 0.9)

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["core.ticks"] = perRep(func(r *rep) float64 { return float64(r.stats.Ticks) })
	m["core.skipped_ticks"] = perRep(func(r *rep) float64 { return float64(r.stats.SkippedTicks) })
	m["core.skip_frac"] = perRep(func(r *rep) float64 {
		return ratio(float64(r.stats.SkippedTicks), float64(r.stats.Ticks))
	})
	m["core.jumps"] = perRep(func(r *rep) float64 { return float64(r.stats.Jumps) })
	m["core.completed_ops"] = perRep(func(r *rep) float64 { return float64(r.ops) })
	m["dispatch.barriers"] = perRep(func(r *rep) float64 { return float64(r.stats.Barriers) })
	m["dispatch.windows_stretched"] = perRep(func(r *rep) float64 { return float64(r.stats.WindowsStretched) })
	m["dispatch.stretch_ratio"] = perRep(func(r *rep) float64 {
		b := float64(r.stats.Barriers)
		return ratio(float64(r.stats.WindowsStretched)+b, b)
	})
	m["dispatch.mailbox_applied"] = perRep(func(r *rep) float64 { return float64(r.stats.MailboxApplied) })
	m["dispatch.mailbox_min_slack"] = perRep(func(r *rep) float64 { return float64(r.stats.MailboxMinSlack) })
	m["dispatch.cpu_per_wall"] = perRep(func(r *rep) float64 { return ratio(r.timed.cpu, r.timed.wall) })
	m["runtime.mallocs"] = perRep(func(r *rep) float64 { return float64(r.timed.mallocs) })
	m["runtime.heap_alloc_bytes"] = perRep(func(r *rep) float64 { return float64(r.timed.bytes) })
	m["runtime.gc_cycles"] = perRep(func(r *rep) float64 { return float64(r.timed.gcs) })
	m["runtime.gc_pause_s"] = perRep(func(r *rep) float64 { return r.timed.pause })
	m["runtime.gc_cpu_frac"] = perRep(func(r *rep) float64 { return ratio(r.timed.gcCPU, r.timed.allCPU) })

	outputs(m, traced[len(traced)-1].results)

	tracedRun := perRep(func(r *rep) float64 { return r.timed.wall })
	var plainRun []float64
	for _, r := range plain {
		plainRun = append(plainRun, r.timed.wall)
	}
	m["trace.overhead_frac"] = ratio(tracedRun-median(plainRun), median(plainRun))
	return m
}

// outputs summarizes the simulated outputs of one run's simulations: the
// fluid and fault layers' work, sample counts, pooled response-time
// quantiles and the highest CPU and WAN utilizations.
func outputs(m map[string]float64, results []*experiment.Result) {
	var resp []float64
	var fluidPoints, fluidSnaps, snaps, injected, stalled, backlog, series, cpuMax, linkMax float64
	for _, res := range results {
		if n := fluidSamples(res); n > 0 {
			fluidPoints++
			fluidSnaps += float64(n)
		}
		longest := 0
		for k, s := range res.Series {
			series += float64(s.Len())
			longest = max(longest, s.Len())
			for _, v := range s.V {
				switch {
				case strings.HasPrefix(k, "cpu:"):
					cpuMax = max(cpuMax, v)
				case strings.HasPrefix(k, "link:"):
					linkMax = max(linkMax, v)
				}
			}
		}
		snaps += float64(longest)
		for _, k := range res.Responses.Keys() {
			resp = append(resp, res.Responses.Series(k.Op, k.DC).V...)
		}
		if f := res.Faults; f != nil {
			for _, inj := range f.Injections {
				if inj.InjectedAt >= 0 {
					injected++
				}
				stalled += float64(inj.StalledOps)
			}
			backlog = max(backlog, f.PeakBacklog)
		}
	}
	m["fluid.points"] = fluidPoints
	m["fluid.fluid_time_frac"] = 0
	if snaps > 0 {
		m["fluid.fluid_time_frac"] = fluidSnaps / snaps
	}
	m["faults.injected_points"] = injected
	m["faults.stalled_ops"] = stalled
	m["faults.peak_backlog"] = backlog
	m["metrics.response_samples"] = float64(len(resp))
	m["metrics.series_samples"] = series
	m["metrics.resp_p50_s"] = median(resp)
	m["metrics.resp_p90_s"], _ = tailPercentile(resp, 0.9)
	m["hardware.cpu_util_max"] = cpuMax
	m["hardware.link_util_max"] = linkMax
}
