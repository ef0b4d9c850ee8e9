package main

import (
	"encoding/json"
	"fmt"
	"runtime"

	"repro/internal/config"
	"repro/internal/hardware"
	"repro/internal/scenarios"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Workload inputs. Everything a run consumes is generated here from the
// seed; the simulator receives only these values and documents.

const (
	// step is the time-loop granularity of every workload (10 ms).
	step = 0.01
	// collectSec is the collector window every workload snapshots at; the
	// traced runs advance the clock in chunks of exactly one window.
	collectSec = 60.0

	// The peak workloads warm the consolidation platform up for peakWarmSec
	// simulated seconds (untimed: it builds peak-hour concurrency from an
	// empty system) and then time peakRunSec simulated seconds. Both are
	// whole collector windows.
	peakWarmSec = 2 * collectSec
	peakRunSec  = 5 * collectSec

	// daySec is the daynight span: one full business-day curve period.
	daySec = 24 * 3600.0

	// sweepRunSec is the length of one what-if grid point.
	sweepRunSec = 900.0
	// faultAt/faultFor schedule the chaos document's WAN fault; faulted
	// grid points must report exactly these transition times.
	faultAt, faultFor = 300.0, 300.0
	// fluidAbove is the fluid-tier threshold of the grid's fluid points, in
	// expected arrivals per tick: below the PDM@EU rate (20 users x 20
	// ops/h = 1.1e-3 per 10 ms tick), so the tier engages outside faults.
	fluidAbove = 1e-3

	// The chaos-sharded workload runs the chaos platform, Atlantic fault
	// included, for shardedRunSec with shardedUsers per client data center.
	shardedRunSec = 1800.0
	shardedUsers  = 200.0
)

// shardedEngine is the chaos-sharded workload's engine: one shard per
// core, capped at the chaos platform's three data centers.
var shardedEngine = fmt.Sprintf("sharded:%d", min(runtime.NumCPU(), 3))

// peakConfig is the consolidation platform at scale 1 over the 13:00 GMT
// global peak hour.
func peakConfig(seed uint64) scenarios.CaseConfig {
	return scenarios.CaseConfig{Step: step, Seed: seed, Scale: 1, StartHour: 13, EndHour: 14}
}

// dayNightDoc is the validation platform driven around the clock by one
// open-loop Poisson CAD workload: 60 users through 09:00-17:00 GMT, a 5%
// night floor, thinned arrivals (the default) and a 10 ms step — the same
// inputs scenarios.RunDayNight uses by default, written as a document.
func dayNightDoc(seed uint64) ([]byte, error) {
	d := config.Document{
		Name:           "daynight",
		Seed:           seed,
		Step:           step,
		Window:         &config.WindowSpec{RunSeconds: daySec},
		Infrastructure: scenarios.ValidationInfraSpec(),
		AccessMatrix:   workload.SingleMaster([]string{"NA"}, "NA"),
		Workloads: []config.WorkloadSpec{{
			App:            "CAD",
			DC:             "NA",
			Users:          workload.BusinessDay(60, 9, 17, 60*0.05),
			OpsPerUserHour: 2,
		}},
	}
	return encodeDoc(&d)
}

// chaosDoc is the sweep's base document: the chaos platform with 20
// PDM users per client data center over a sweepRunSec run.
func chaosDoc(seed uint64) ([]byte, error) {
	return chaosPlatform(seed, 20, sweepRunSec, "")
}

// shardedDoc is the chaos-sharded workload's document: the chaos platform
// loaded with shardedUsers PDM users per client data center over a
// shardedRunSec run on the sharded engine, one shard per core up to one
// per data center.
func shardedDoc(seed uint64) ([]byte, error) {
	return chaosPlatform(seed, shardedUsers, shardedRunSec, shardedEngine)
}

// chaosPlatform is a three-data-center platform shaped like
// examples/chaos.json: NA owns every file, EU and AS1 each run users
// open-loop PDM users around the clock, and the Atlantic link NA-EU fails
// from faultAt for faultFor seconds of a runSec run on the named engine.
func chaosPlatform(seed uint64, users, runSec float64, engine string) ([]byte, error) {
	server := topology.ServerSpec{
		CPU:     hardware.CPUSpec{Sockets: 2, Cores: 8, GHz: 2.5},
		MemGB:   32,
		NICGbps: 10,
		RAID: &hardware.RAIDSpec{
			Disks:    4,
			Disk:     hardware.DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
			CtrlGbps: 4,
			HitRate:  0.05,
		},
	}
	local := hardware.LinkSpec{Gbps: 10, LatencyMS: 0.45}
	infra := topology.InfraSpec{Clients: map[string]topology.ClientSpec{}}
	flat := func(v float64) workload.Curve {
		var c workload.Curve
		for h := range c {
			c[h] = v
		}
		return c
	}
	d := config.Document{
		Name:         "atlantic-partition",
		Seed:         seed,
		Step:         step,
		Engine:       engine,
		Window:       &config.WindowSpec{RunSeconds: runSec},
		AccessMatrix: workload.AccessMatrix{},
		Faults: []config.FaultSpec{{
			Name: "atlantic", Kind: "wan", At: faultAt, Duration: faultFor,
			Magnitude: 1, From: "NA", To: "EU",
		}},
	}
	for _, dc := range []string{"NA", "EU", "AS1"} {
		infra.DCs = append(infra.DCs, topology.DCSpec{
			Name:       dc,
			SwitchGbps: 20,
			ClientLink: hardware.LinkSpec{Gbps: 10, LatencyMS: 0.5},
			Tiers: []topology.TierSpec{
				{Name: "app", Servers: 2, Server: server, LocalLink: local},
				{Name: "db", Servers: 1, Server: server, LocalLink: local},
			},
		})
		d.AccessMatrix[dc] = map[string]float64{"NA": 1}
		if dc == "NA" {
			continue
		}
		infra.Clients[dc] = topology.ClientSpec{Slots: 32, NICGbps: 1, GHz: 2.5, DiskMBs: 120}
		d.Workloads = append(d.Workloads, config.WorkloadSpec{
			App: "PDM", DC: dc, Users: flat(users), OpsPerUserHour: 20,
		})
	}
	infra.WAN = []topology.WANSpec{
		{From: "NA", To: "EU", Link: hardware.LinkSpec{Gbps: 0.155, LatencyMS: 40}},
		{From: "NA", To: "AS1", Link: hardware.LinkSpec{Gbps: 0.155, LatencyMS: 90}},
		{From: "EU", To: "AS1", Link: hardware.LinkSpec{Gbps: 0.045, LatencyMS: 110}, Backup: true},
	}
	d.Infrastructure = infra
	return encodeDoc(&d)
}

// sweepAxes is the what-if grid over the chaos document: fault severity
// (0 = healthy), fluid tier off/on for PDM@EU, Atlantic bandwidth and the
// NA application tier's cores per server — 3 x 2 x 4 x 5 = 120 points.
var sweepAxes = []struct {
	path   string
	values []float64
}{
	{"faults.atlantic.magnitude", []float64{0, 0.5, 1}},
	{"workloads.PDM.EU.fluid", []float64{0, fluidAbove}},
	{"wan.NA-EU.mbps", []float64{45, 100, 155, 622}},
	{"dcs.NA.app.cores", []float64{4, 6, 8, 12, 16}},
}

// sweepPoints is the grid size of sweepAxes.
func sweepPoints() int {
	n := 1
	for _, ax := range sweepAxes {
		n *= len(ax.values)
	}
	return n
}

func encodeDoc(d *config.Document) ([]byte, error) {
	raw, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("encoding document %s: %w", d.Name, err)
	}
	return raw, nil
}
