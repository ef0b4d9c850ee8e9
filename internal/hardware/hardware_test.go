package hardware

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/queueing"
)

func drainAll(t *testing.T, a core.Agent, dt float64, maxSteps int) []*queueing.Task {
	t.Helper()
	var done []*queueing.Task
	for i := 0; i < maxSteps && !a.Idle(); i++ {
		a.Step(dt)
		a.Drain(func(task *queueing.Task) { done = append(done, task) })
	}
	if !a.Idle() {
		t.Fatalf("%s not idle after %d steps", a.Name(), maxSteps)
	}
	return done
}

func TestCPUSpecValidation(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	bad := []CPUSpec{
		{Sockets: 0, Cores: 4, GHz: 2},
		{Sockets: 1, Cores: 0, GHz: 2},
		{Sockets: 1, Cores: 4, GHz: 0},
	}
	for _, spec := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCPU(%+v) did not panic", spec)
				}
			}()
			NewCPU(s, "cpu", spec)
		}()
	}
}

func TestCPUServiceTimeMatchesFrequency(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	cpu := NewCPU(s, "cpu", CPUSpec{Sockets: 1, Cores: 1, GHz: 2}) // 2e9 cycles/s
	cpu.Enqueue(&queueing.Task{ID: 1, Demand: 1e9})                // 0.5 s of work
	var done []*queueing.Task
	cpu.Step(0.4)
	cpu.Drain(func(task *queueing.Task) { done = append(done, task) })
	if len(done) != 0 {
		t.Fatal("completed before 0.5s of cycles consumed")
	}
	cpu.Step(0.11)
	cpu.Drain(func(task *queueing.Task) { done = append(done, task) })
	if len(done) != 1 {
		t.Fatal("not completed after full service time")
	}
}

func TestCPURoundRobinAcrossSockets(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	cpu := NewCPU(s, "cpu", CPUSpec{Sockets: 2, Cores: 1, GHz: 1})
	// Two equal tasks must land on different sockets and finish together.
	cpu.Enqueue(&queueing.Task{ID: 1, Demand: 1e9})
	cpu.Enqueue(&queueing.Task{ID: 2, Demand: 1e9})
	done := drainAll(t, cpu, 0.1, 20)
	if len(done) != 2 {
		t.Fatalf("completed %d, want 2", len(done))
	}
	if cpu.QueueDepth() != 0 {
		t.Errorf("queue depth = %d", cpu.QueueDepth())
	}
}

func TestCPUHTFactorSpeedsService(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	plain := NewCPU(s, "plain", CPUSpec{Sockets: 1, Cores: 1, GHz: 1})
	ht := NewCPU(s, "ht", CPUSpec{Sockets: 1, Cores: 1, GHz: 1, HTFactor: 2})
	plain.Enqueue(&queueing.Task{ID: 1, Demand: 1e9})
	ht.Enqueue(&queueing.Task{ID: 1, Demand: 1e9})
	var plainDone, htDone int
	plain.Step(0.6)
	plain.Drain(func(*queueing.Task) { plainDone++ })
	ht.Step(0.6)
	ht.Drain(func(*queueing.Task) { htDone++ })
	if plainDone != 0 || htDone != 1 {
		t.Errorf("HT factor not applied: plain=%d ht=%d", plainDone, htDone)
	}
}

func TestCPUBusyAccounting(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	cpu := NewCPU(s, "cpu", CPUSpec{Sockets: 2, Cores: 2, GHz: 1})
	cpu.Enqueue(&queueing.Task{ID: 1, Demand: 1e9}) // 1 core-second
	drainAll(t, cpu, 0.1, 20)
	if b := cpu.TakeBusy(); math.Abs(b-1.0) > 1e-9 {
		t.Errorf("busy = %v, want 1.0", b)
	}
	if cpu.Spec().TotalCores() != 4 {
		t.Errorf("TotalCores = %d", cpu.Spec().TotalCores())
	}
}

func TestMemoryOccupancy(t *testing.T) {
	m := NewMemory(32e9, 0, 1)
	m.Acquire(10e9)
	m.Acquire(5e9)
	if m.Used() != 15e9 {
		t.Errorf("used = %v", m.Used())
	}
	m.Release(5e9)
	if m.Used() != 10e9 {
		t.Errorf("used after release = %v", m.Used())
	}
	if m.Peak() != 15e9 {
		t.Errorf("peak = %v", m.Peak())
	}
	if m.Capacity() != 32e9 {
		t.Errorf("capacity = %v", m.Capacity())
	}
}

func TestMemoryOverReleasePanics(t *testing.T) {
	m := NewMemory(1e9, 0, 1)
	m.Acquire(1)
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	m.Release(2)
}

func TestMemoryHitRateExtremes(t *testing.T) {
	never := NewMemory(1e9, 0, 1)
	always := NewMemory(1e9, 1, 1)
	for i := 0; i < 100; i++ {
		if never.Hit() {
			t.Fatal("hitRate=0 produced a hit")
		}
		if !always.Hit() {
			t.Fatal("hitRate=1 produced a miss")
		}
	}
}

func TestMemoryHitRateStatistical(t *testing.T) {
	m := NewMemory(1e9, 0.3, 42)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.Hit() {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.02 {
		t.Errorf("empirical hit rate %v, want ~0.3", rate)
	}
}

func TestNICAndSwitchServiceRate(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	nic := NewNIC(s, "nic", 1)   // 1 Gbps = 125e6 B/s
	sw := NewSwitch(s, "sw", 10) // 10 Gbps
	if nic.Rate() != 125e6 {
		t.Errorf("nic rate = %v", nic.Rate())
	}
	if sw.Rate() != 1.25e9 {
		t.Errorf("switch rate = %v", sw.Rate())
	}
	nic.Enqueue(&queueing.Task{ID: 1, Demand: 125e6}) // 1 second
	done := drainAll(t, nic, 0.25, 10)
	if len(done) != 1 {
		t.Fatal("nic transfer incomplete")
	}
	if b := nic.TakeBusy(); math.Abs(b-1.0) > 1e-9 {
		t.Errorf("nic busy = %v, want 1.0", b)
	}
}

func TestLinkLatencyAndSharing(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	l := NewLink(s, "wan", LinkSpec{Gbps: 0.155, LatencyMS: 100, MaxConn: 64})
	// 155 Mbps = 19.375e6 B/s; transfer 19.375e6 bytes => 1s + 0.1s latency.
	l.Enqueue(&queueing.Task{ID: 1, Demand: 19.375e6})
	var done int
	for i := 0; i < 10; i++ { // 1.0s total: not yet complete
		l.Step(0.1)
		l.Drain(func(*queueing.Task) { done++ })
	}
	if done != 0 {
		t.Fatal("transfer completed before latency + transmission")
	}
	l.Step(0.11)
	l.Drain(func(*queueing.Task) { done++ })
	if done != 1 {
		t.Fatal("transfer incomplete after 1.21s")
	}
}

func TestLinkAllocationCapsBandwidth(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	full := NewLink(s, "full", LinkSpec{Gbps: 1})
	capped := NewLink(s, "capped", LinkSpec{Gbps: 1, Allocated: 0.2})
	if capped.Rate() >= full.Rate() {
		t.Errorf("allocated rate %v not below full %v", capped.Rate(), full.Rate())
	}
	if math.Abs(capped.Rate()-0.2*full.Rate()) > 1e-6 {
		t.Errorf("allocated rate = %v, want 20%% of %v", capped.Rate(), full.Rate())
	}
}

func TestLinkOverAllocationPanics(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	defer func() {
		if recover() == nil {
			t.Error("allocation > 1 did not panic")
		}
	}()
	NewLink(s, "bad", LinkSpec{Gbps: 1, Allocated: 1.5})
}

func TestLinkFailureIsRoutingPlaneOnly(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	l := NewLink(s, "wan", LinkSpec{Gbps: 1})
	l.Fail()
	if !l.Failed() {
		t.Fatal("Failed() false after Fail()")
	}
	// Complete-then-divert: a failed link refuses route selection (the
	// topology layer's job) but keeps draining transfers whose route was
	// pinned before the failure — enqueue must not panic or stall.
	l.Enqueue(&queueing.Task{ID: 1, Demand: 1})
	l.Restore()
	if l.Failed() {
		t.Fatal("Failed() true after Restore()")
	}
	l.Enqueue(&queueing.Task{ID: 2, Demand: 1})
}

func TestRAIDStripingAcceleratesLargeReads(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0}
	one := NewRAID(s, "raid1", RAIDSpec{Disks: 1, Disk: disk, CtrlGbps: 4, HitRate: 0})
	four := NewRAID(s, "raid4", RAIDSpec{Disks: 4, Disk: disk, CtrlGbps: 4, HitRate: 0})
	read := func(r *RAID) float64 {
		r.Enqueue(&queueing.Task{ID: 1, Demand: 100e6}) // 1s on one 100MB/s drive
		steps := 0
		for !r.Idle() {
			r.Step(0.01)
			r.Drain(func(*queueing.Task) {})
			steps++
			if steps > 10000 {
				t.Fatal("raid read never completed")
			}
		}
		return float64(steps) * 0.01
	}
	t1 := read(one)
	t4 := read(four)
	if t4 >= t1 {
		t.Errorf("striping did not accelerate: 1 disk %.2fs vs 4 disks %.2fs", t1, t4)
	}
	if ratio := t1 / t4; ratio < 2.5 {
		t.Errorf("4-way striping speedup %.2f, want > 2.5", ratio)
	}
}

func TestRAIDCacheHitBypassesDisks(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0}
	r := NewRAID(s, "raid", RAIDSpec{Disks: 4, Disk: disk, CtrlGbps: 4, HitRate: 1})
	r.Enqueue(&queueing.Task{ID: 1, Demand: 100e6})
	done := drainAll(t, r, 0.01, 1000)
	if len(done) != 1 {
		t.Fatal("request incomplete")
	}
	if b := r.TakeBusy(); b != 0 {
		t.Errorf("drives did work (%v s) despite 100%% cache hit", b)
	}
}

func TestRAIDJoinWaitsForAllStripes(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0}
	r := NewRAID(s, "raid", RAIDSpec{Disks: 8, Disk: disk, CtrlGbps: 4, HitRate: 0})
	r.Enqueue(&queueing.Task{ID: 7, Demand: 800e6}) // 1s per stripe on 8 disks
	var completions []*queueing.Task
	elapsed := 0.0
	for !r.Idle() {
		r.Step(0.01)
		elapsed += 0.01
		r.Drain(func(task *queueing.Task) { completions = append(completions, task) })
		if elapsed > 100 {
			t.Fatal("join never completed")
		}
	}
	if len(completions) != 1 || completions[0].ID != 7 {
		t.Fatalf("completions = %v", completions)
	}
	if elapsed < 1.0 {
		t.Errorf("join completed in %.2fs, before the 1s stripe time", elapsed)
	}
}

func TestSANPipelineCompletes(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	san := NewSAN(s, "san", SANSpec{
		Disks:        20,
		Disk:         DiskSpec{CtrlGbps: 4, MBps: 120, HitRate: 0.1},
		FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 4, HitRate: 0,
	})
	san.Enqueue(&queueing.Task{ID: 3, Demand: 240e6})
	done := drainAll(t, san, 0.01, 10000)
	if len(done) != 1 || done[0].ID != 3 {
		t.Fatalf("SAN completions = %v", done)
	}
}

func TestSANCacheHitSkipsLoopAndDisks(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	san := NewSAN(s, "san", SANSpec{
		Disks:        4,
		Disk:         DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0},
		FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 4, HitRate: 1,
	})
	san.Enqueue(&queueing.Task{ID: 1, Demand: 400e6})
	done := drainAll(t, san, 0.01, 1000)
	if len(done) != 1 {
		t.Fatal("request incomplete")
	}
	if b := san.TakeBusy(); b != 0 {
		t.Errorf("drives did work (%v s) despite 100%% cache hit", b)
	}
}

func TestStorageSpecValidation(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid RAIDSpec did not panic")
			}
		}()
		NewRAID(s, "bad", RAIDSpec{Disks: 0})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid SANSpec did not panic")
			}
		}()
		NewSAN(s, "bad", SANSpec{Disks: 1})
	}()
}

// Property: for any mix of request sizes, a RAID with no caches conserves
// work — total drive busy time equals total demand divided by aggregate
// drive throughput.
func TestRAIDWorkConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 16 {
			return true
		}
		s := core.NewSimulation(core.Config{})
		disk := DiskSpec{CtrlGbps: 100, MBps: 100, HitRate: 0}
		r := NewRAID(s, "raid", RAIDSpec{Disks: 4, Disk: disk, CtrlGbps: 100, HitRate: 0})
		total := 0.0
		for i, v := range raw {
			d := float64(v%1000)*1e5 + 1e5
			total += d
			r.Enqueue(&queueing.Task{ID: uint64(i), Demand: d})
		}
		for i := 0; i < 1000000 && !r.Idle(); i++ {
			r.Step(0.05)
			r.Drain(func(*queueing.Task) {})
		}
		busy := r.TakeBusy()
		return math.Abs(busy-total/100e6) < 1e-6*float64(len(raw))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestAgentHorizons checks each hardware agent's event horizon: +Inf when
// idle, the exact earliest internal event when loaded, and per-tick
// equivalence of the bulk-step path against plain stepping.
func TestAgentHorizons(t *testing.T) {
	s := core.NewSimulation(core.Config{})
	cpu := NewCPU(s, "cpu", CPUSpec{Sockets: 1, Cores: 2, GHz: 1e-9}) // 1 cycle/s per core
	nic := NewNIC(s, "nic", 8e-9)                                     // 1 byte/s
	raid := NewRAID(s, "raid", RAIDSpec{
		Disks: 2, Disk: DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0},
		CtrlGbps: 8, HitRate: 0,
	})
	for _, a := range []core.Agent{cpu, nic, raid} {
		if h := a.Horizon(); !math.IsInf(h, 1) {
			t.Errorf("%s idle horizon = %v, want +Inf", a.Name(), h)
		}
	}
	cpu.Enqueue(&queueing.Task{ID: 1, Demand: 4})
	cpu.Enqueue(&queueing.Task{ID: 2, Demand: 9})
	if h := cpu.Horizon(); h != 4 {
		t.Errorf("cpu horizon = %v, want 4 (earliest core completion)", h)
	}
	nic.Enqueue(&queueing.Task{ID: 3, Demand: 2.5})
	if h := nic.Horizon(); h != 2.5 {
		t.Errorf("nic horizon = %v, want 2.5", h)
	}
	raid.Enqueue(&queueing.Task{ID: 4, Demand: 64e6})
	h := raid.Horizon()
	if math.IsInf(h, 1) || h <= 0 {
		t.Errorf("loaded raid horizon = %v, want finite positive (controller-cache service)", h)
	}
	if want := 64e6 / (8e9 / 8); h != want {
		t.Errorf("raid horizon = %v, want %v (dacc service time)", h, want)
	}
}

// TestStepNMatchesStep drives every bulk-stepping hardware agent through a
// jump-sized window and asserts the final state equals per-tick stepping:
// the replay contract behind fast-forward.
func TestStepNMatchesStep(t *testing.T) {
	build := func() (*core.Simulation, []core.Agent) {
		s := core.NewSimulation(core.Config{Seed: 11})
		cpu := NewCPU(s, "cpu", CPUSpec{Sockets: 2, Cores: 2, GHz: 2.5})
		link := NewLink(s, "link", LinkSpec{Gbps: 1, LatencyMS: 45})
		san := NewSAN(s, "san", SANSpec{
			Disks: 4, Disk: DiskSpec{CtrlGbps: 4, MBps: 150, HitRate: 0.1},
			FCSwitchGbps: 8, CtrlGbps: 8, FCALGbps: 8, HitRate: 0.05,
		})
		cpu.Enqueue(&queueing.Task{ID: 1, Demand: 3e9})
		cpu.Enqueue(&queueing.Task{ID: 2, Demand: 7e9})
		link.Enqueue(&queueing.Task{ID: 3, Demand: 80e6})
		san.Enqueue(&queueing.Task{ID: 4, Demand: 96e6})
		return s, []core.Agent{cpu, link, san}
	}
	const dt, n = 0.01, 700
	_, bulk := build()
	_, plain := build()
	for i, a := range bulk {
		ref := plain[i]
		for tick := 0; tick < 3*n; tick += n {
			a.(core.BulkStepper).StepN(n, dt)
			for j := 0; j < n; j++ {
				ref.Step(dt)
			}
			var ad, rd int
			a.Drain(func(*queueing.Task) { ad++ })
			ref.Drain(func(*queueing.Task) { rd++ })
			if ad != rd {
				t.Fatalf("%s: completions after window differ: %d vs %d", a.Name(), ad, rd)
			}
		}
		if ab, rb := takeBusy(a), takeBusy(ref); ab != rb {
			t.Errorf("%s: busy accumulators differ: %v vs %v", a.Name(), ab, rb)
		}
		if a.Idle() != ref.Idle() {
			t.Errorf("%s: idle %v vs %v", a.Name(), a.Idle(), ref.Idle())
		}
	}
}

func takeBusy(a core.Agent) float64 {
	switch v := a.(type) {
	case *CPU:
		return v.TakeBusy()
	case *Link:
		return v.TakeBusy()
	case *SAN:
		return v.TakeBusy()
	}
	return 0
}

// TestStorageSlabReuse drives overlapping waves of requests through a RAID
// and a SAN at array hit rates 0, 0.5 and 1, so ingress slabs and fork
// records are recycled across requests of different sizes. Every parent
// must complete exactly once, as itself, no earlier than its own demand
// allows, and with its own demand untouched; every recycled record must
// sit in its free list wiped of the request it served.
func TestStorageSlabReuse(t *testing.T) {
	const (
		disks = 4
		dt    = 0.01
		waves = 4
		wave  = 9
	)
	disk := DiskSpec{CtrlGbps: 4, MBps: 100, HitRate: 0}
	for _, hit := range []float64{0, 0.5, 1} {
		for _, kind := range []string{"raid", "san"} {
			s := core.NewSimulation(core.Config{Seed: 3})
			var ag core.QueueAgent
			var arr *diskArray
			var ingress float64 // ingress bytes/s: the bound on any completion
			if kind == "raid" {
				r := NewRAID(s, "raid", RAIDSpec{Disks: disks, Disk: disk, CtrlGbps: 4, HitRate: hit})
				ag, arr, ingress = r, r.array, 4e9/8
			} else {
				n := NewSAN(s, "san", SANSpec{Disks: disks, Disk: disk,
					FCSwitchGbps: 8, CtrlGbps: 4, FCALGbps: 4, HitRate: hit})
				ag, arr, ingress = n, n.array, 4e9/8
			}
			parents := make([]queueing.Task, waves*wave)
			enqueued := make([]float64, len(parents))
			done := map[*queueing.Task]int{}
			now, next, peak := 0.0, 0, 0
			for step := 0; step < 100000 && (next < len(parents) || !ag.Idle()); step++ {
				// A new wave lands every 40 ticks, on top of whatever is
				// still in flight.
				if step%40 == 0 && next < len(parents) {
					for i := 0; i < wave; i++ {
						p := &parents[next]
						*p = queueing.Task{ID: uint64(next + 1), Demand: float64(1+next%5) * 4e6}
						enqueued[next] = now
						ag.Enqueue(p)
						next++
					}
				}
				if f := next - len(done); f > peak {
					peak = f
				}
				ag.Step(dt)
				now += dt
				ag.Drain(func(task *queueing.Task) {
					done[task]++
					i := int(task.ID) - 1
					if i < 0 || i >= len(parents) || task != &parents[i] {
						t.Fatalf("%s hit %v: completed foreign task %p (ID %d)", kind, hit, task, task.ID)
					}
					want := float64(1+i%5) * 4e6
					if task.Demand != want {
						t.Errorf("%s hit %v: parent %d demand %v, want %v", kind, hit, task.ID, task.Demand, want)
					}
					// Handoffs inside a tick let stages overlap, so the
					// bound is the slowest single stage: the ingress queue,
					// or on a forced miss a stripe on its drive.
					lower := want / ingress
					if hit == 0 {
						lower = math.Max(lower, want/disks/(disk.MBps*1e6))
					}
					if el := now - enqueued[i]; el < lower*(1-1e-9) {
						t.Errorf("%s hit %v: parent %d done after %.3fs, below its %.3fs bound", kind, hit, task.ID, el, lower)
					}
				})
			}
			if next != len(parents) || !ag.Idle() {
				t.Fatalf("%s hit %v: run did not drain", kind, hit)
			}
			for i := range parents {
				if n := done[&parents[i]]; n != 1 {
					t.Errorf("%s hit %v: parent %d completed %d times", kind, hit, i+1, n)
				}
			}
			if len(arr.exts) == 0 || len(arr.exts) > peak {
				t.Errorf("%s hit %v: %d ingress slabs pooled for %d requests at most %d in flight",
					kind, hit, len(arr.exts), len(parents), peak)
			}
			for _, e := range arr.exts {
				if *e != (extSlab{}) {
					t.Errorf("%s hit %v: pooled ingress slab carries %+v", kind, hit, *e)
				}
			}
			if hit == 1 && len(arr.joins) != 0 {
				t.Errorf("%s: %d fork records at array hit rate 1", kind, len(arr.joins))
			}
			if hit < 1 && (len(arr.joins) == 0 || len(arr.joins) > peak) {
				t.Errorf("%s hit %v: %d fork records pooled, at most %d requests in flight", kind, hit, len(arr.joins), peak)
			}
			for _, fj := range arr.joins {
				if fj.parent != nil || fj.pending != 0 || len(fj.stripes) != disks {
					t.Errorf("%s hit %v: pooled fork record holds parent %v, pending %d, %d stripes",
						kind, hit, fj.parent, fj.pending, len(fj.stripes))
				}
			}
		}
	}
}
