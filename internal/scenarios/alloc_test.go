package scenarios

import (
	"runtime"
	"testing"
)

// maxAllocsPerOp is the allocation ceiling of the message path: heap
// allocations per completed operation over the business hours of the
// day-night scenario. Launching an operation still allocates its binding
// and expansion closure, but flows, stage arenas, tokens, storage slabs and
// delay-line entries are all recycled, so a warm run stays far below it; a
// per-message or per-stage allocation creeping back in breaks it at once.
const maxAllocsPerOp = 40

// TestMessagePathAllocationCeiling warms the day-night platform up to
// 10:00 GMT, an hour into the business day, then counts heap allocations
// over 10:00-16:00 and divides them by the operations completed there.
func TestMessagePathAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	cfg := DayNightConfig{Seed: 7}
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	e, _, err := dayNightExperiment(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Compile()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Sim.Shutdown()
	r.Sim.RunFor(10 * 3600)
	ops0 := r.Sim.CompletedOps()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Sim.RunFor(6 * 3600)
	runtime.ReadMemStats(&after)
	ops := r.Sim.CompletedOps() - ops0
	if ops < 100 {
		t.Fatalf("only %d operations completed over 10:00-16:00", ops)
	}
	perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
	t.Logf("%d operations, %.1f allocations per operation", ops, perOp)
	if perOp > maxAllocsPerOp {
		t.Errorf("%.1f heap allocations per operation, ceiling %d", perOp, maxAllocsPerOp)
	}
}
