package scenarios

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/hardware"
	"repro/internal/topology"
	"repro/internal/workload"
)

// chaosPlatform is the miniature Atlantic-partition platform: NA owns the
// data, EU clients fetch across the primary NA-EU link, and a thin EU-AS1
// backup plus the NA-AS1 primary form the detour that carries EU traffic
// while the Atlantic is down.
func chaosPlatform() topology.InfraSpec {
	srv := topology.ServerSpec{
		CPU:     hardware.CPUSpec{Sockets: 1, Cores: 8, GHz: 2.5},
		MemGB:   32,
		NICGbps: 10,
		RAID: &hardware.RAIDSpec{
			Disks: 2, Disk: hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
			CtrlGbps: 4, HitRate: 0.05,
		},
	}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	dc := func(name string) topology.DCSpec {
		return topology.DCSpec{
			Name: name, SwitchGbps: 20,
			ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
			Tiers: []topology.TierSpec{
				{Name: "app", Servers: 2, Server: srv, LocalLink: local},
				{Name: "db", Servers: 1, Server: srv, LocalLink: local},
			},
		}
	}
	return topology.InfraSpec{
		DCs: []topology.DCSpec{dc("NA"), dc("EU"), dc("AS1")},
		WAN: []topology.WANSpec{
			{From: "NA", To: "EU", Link: hardware.LinkSpec{Gbps: 0.155, LatencyMS: 40}},
			{From: "NA", To: "AS1", Link: hardware.LinkSpec{Gbps: 0.155, LatencyMS: 90}},
			{From: "EU", To: "AS1", Link: hardware.LinkSpec{Gbps: 0.045, LatencyMS: 110}, Backup: true},
		},
		Clients: map[string]topology.ClientSpec{
			"EU": {Slots: 32, NICGbps: 1, GHz: 2.5, DiskMBs: 120},
		},
	}
}

// chaosExperiment assembles the partition scenario: stabilize for 120 s,
// sever NA-EU for 120 s, then 120 s of recovery.
func chaosExperiment(extra ...experiment.Option) (*experiment.Experiment, error) {
	fn, err := experiment.OpsByName("PDM", "EU")
	if err != nil {
		return nil, err
	}
	opts := []experiment.Option{
		experiment.WithInfra(chaosPlatform()),
		experiment.WithSeed(42),
		experiment.WithDuration(360),
		experiment.WithAccessMatrix(workload.SingleMaster([]string{"NA", "EU", "AS1"}, "NA")),
		experiment.WithWorkload(experiment.Workload{
			App: "PDM", DC: "EU",
			Users:          workload.BusinessDay(25, 0, 24, 25),
			OpsPerUserHour: 20,
			OpsFn:          fn,
			OpsKey:         "PDM@EU",
			Gauges:         true,
		}),
		experiment.WithFault(faults.Injection{
			Name:     "atlantic",
			Fault:    &faults.WAN{From: "NA", To: "EU", Mag: 1},
			At:       120,
			Duration: 120,
		}),
	}
	return experiment.New("chaos", append(opts, extra...)...)
}

// TestChaosFastForwardHitsFaultTicks is the jump-sizing guarantee for
// fault schedules: the controller is a source whose NextPoll is the exact
// next transition time, so fast-forward jumps may land on a fault tick but
// never cross it. The run must actually fast-forward (jumps > 0), apply
// both transitions at exactly their scheduled times, and reproduce the
// plain tick-by-tick loop bit for bit.
func TestChaosFastForwardHitsFaultTicks(t *testing.T) {
	// Default loop: thinned arrivals leave quiet stretches, so the run
	// genuinely fast-forwards — and the fault must still land exactly.
	fast, err := chaosExperiment()
	if err != nil {
		t.Fatal(err)
	}
	fastRes, err := fast.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fastRes.Stats.Jumps == 0 {
		t.Fatal("fast-forward never engaged; the test pins nothing")
	}
	if fastRes.Faults == nil {
		t.Fatal("no fault report")
	}
	ir := fastRes.Faults.Injections[0]
	if ir.InjectedAt != 120 {
		t.Errorf("injected at %v, want exactly 120 — a jump crossed the fault tick", ir.InjectedAt)
	}
	if ir.RecoveredAt != 240 {
		t.Errorf("recovered at %v, want exactly 240 — a jump crossed the recovery tick", ir.RecoveredAt)
	}
	if fastRes.Faults.TimeToReroute < 0 {
		t.Error("no diverted traffic observed on the backup link")
	}

	// Bit-identity of the optimized loop against the plain tick-by-tick
	// loop, with thinning disabled on both sides: thinned arrivals are
	// distribution-identical across loop modes, not bit-identical, and
	// this comparison pins bits.
	digest := func(flags experiment.LoopFlags) string {
		e, err := chaosExperiment(experiment.WithLoopFlags(flags))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults == nil || res.Faults.Injections[0].InjectedAt != 120 {
			t.Fatalf("flags %+v: fault not applied at 120", flags)
		}
		return res.Digest()
	}
	opt := digest(experiment.LoopFlags{NoThinning: true})
	plain := digest(experiment.LoopFlags{NoFastForward: true, NoThinning: true})
	if opt != plain {
		t.Errorf("chaos run diverged between optimized and tick-by-tick loops:\n%s\n%s", opt, plain)
	}
}

// TestGoldenChaos pins the full chaos scenario — partition, divert, drain —
// as a golden trace. The committed file includes the fault: series, so any
// change to transition timing, rebuild scheduling or the recovery probes
// shows up as a diff. Regenerate with -update only for intentional model
// changes.
func TestGoldenChaos(t *testing.T) {
	e, err := chaosExperiment()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer res.Sim.Shutdown()
	checkGolden(t, "golden_chaos", snapshotTrace(res.Sim))
}
