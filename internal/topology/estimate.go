package topology

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hardware"
)

// PlanDuration returns the isolated (contention-free) duration of a
// message's stages (one hop as AppendHop appends it, or a whole plan): the
// sum of stage service times plus the discrete-time forwarding
// overhead of one step per stage boundary. It is the analytic counterpart
// of executing the plan alone on an idle infrastructure, used to calibrate
// canonical operation costs against the durations the thesis reports
// (Table 5.1) — the inverse of the paper's profiling step, which measured
// canonical costs from observed isolated durations.
func PlanDuration(stages []core.Stage, step float64) float64 {
	total := 0.0
	for _, st := range stages {
		total += stageDuration(st, step)
		total += step // per-stage forwarding: work enqueued at tick t serves at t+1
	}
	return total
}

func stageDuration(st core.Stage, step float64) float64 {
	if st.Queue == nil {
		return 0
	}
	switch q := st.Queue.(type) {
	case *hardware.CPU:
		spec := q.Spec()
		ht := spec.HTFactor
		if ht <= 0 {
			ht = 1
		}
		return st.Demand / (spec.GHz * 1e9 * ht)
	case *hardware.NIC:
		return st.Demand / q.Rate()
	case *hardware.Switch:
		return st.Demand / q.Rate()
	case *hardware.Link:
		return q.Latency() + st.Demand/q.Rate()
	case *hardware.RAID:
		spec := q.Spec()
		stripe := st.Demand / float64(spec.Disks)
		// Controller cache, disk controller, drive — plus the two internal
		// forwarding ticks between those queues.
		return st.Demand/(spec.CtrlGbps*1e9/8) +
			stripe/(spec.Disk.CtrlGbps*1e9/8) +
			stripe/(spec.Disk.MBps*1e6) + 2*step
	case *hardware.SAN:
		spec := q.Spec()
		stripe := st.Demand / float64(spec.Disks)
		return st.Demand/(spec.FCSwitchGbps*1e9/8) +
			st.Demand/(spec.CtrlGbps*1e9/8) +
			st.Demand/(spec.FCALGbps*1e9/8) +
			stripe/(spec.Disk.CtrlGbps*1e9/8) +
			stripe/(spec.Disk.MBps*1e6) + 4*step
	case *core.DelayLine:
		return st.Delay
	default:
		panic(fmt.Sprintf("topology: PlanDuration cannot estimate stage on %T", st.Queue))
	}
}
