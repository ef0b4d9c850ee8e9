package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/scenarios"
)

// TestTailPercentile pins the percentile rule: a reported percentile has
// at least minTail samples beyond it, and falls back towards the median
// when the requested one has fewer.
func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: the function must sort
		}
		return xs
	}
	beyond := func(xs []float64, v float64) int {
		n := 0
		for _, x := range xs {
			if x > v {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 200, p: 0.9, want: 180, ok: true},
		{n: 100, p: 0.9, want: 90, ok: true},
		{n: 99, p: 0.9, want: 89, ok: false},
		{n: 25, p: 0.9, want: 15, ok: false},
		{n: 12, p: 0.9, want: 6.5, ok: false}, // no rank qualifies: median
		{n: 1, p: 0.9, want: 1, ok: false},
	} {
		xs := seq(tc.n)
		v, ok := tailPercentile(xs, tc.p)
		if v != tc.want || ok != tc.ok {
			t.Errorf("n=%d p=%v: got (%v, %v), want (%v, %v)", tc.n, tc.p, v, ok, tc.want, tc.ok)
		}
		if ok && beyond(xs, v) < minTail {
			t.Errorf("n=%d p=%v: only %d samples beyond %v", tc.n, tc.p, beyond(xs, v), v)
		}
	}
	if v, _ := tailPercentile(nil, 0.9); v != 0 {
		t.Errorf("empty input: got %v", v)
	}
}

// TestScoreCountsCorruptedDigest feeds the scorer runs whose digests agree
// but for one deliberately corrupted simulation: exactly that simulation
// counts as failed, a mismatch against the pinned default-seed digest
// fails every simulation of its run, and an errored run fails all of its
// simulations.
func TestScoreCountsCorruptedDigest(t *testing.T) {
	w := bench{name: "grid", sims: 3}
	good := []string{"a", "b", "c"}
	runs := func(corrupt int) []attempt {
		var out []attempt
		for i := 0; i < 4; i++ {
			r := &rep{digests: append([]string(nil), good...)}
			if i == corrupt {
				r.digests[1] = "corrupted"
			}
			out = append(out, attempt{r: r})
		}
		return out
	}
	for _, tc := range []struct {
		name              string
		runs              []attempt
		pinned            string
		attempted, failed int
	}{
		{"first run corrupted", runs(0), "", 12, 1},
		{"later run corrupted", runs(2), "", 12, 1},
		{"pinned", runs(2), combine(good), 12, 3},
		{"errored", append(runs(-1), attempt{err: os.ErrDeadlineExceeded}), "", 15, 3},
	} {
		o := &outcome{}
		o.score(w, tc.runs, tc.pinned)
		if o.attempted != tc.attempted || o.failed != tc.failed {
			t.Errorf("%s: attempted %d failed %d, want %d and %d (%v)",
				tc.name, o.attempted, o.failed, tc.attempted, tc.failed, o.reasons)
		}
	}
}

// benchmarkFile is the subset of BENCHMARK.json the names are checked
// against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricNamesMatchBenchmarkFile runs every workload briefly, untraced
// and traced, and checks that the printed metric names and units are
// exactly those BENCHMARK.json declares, and the workloads the same set.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var tr *tracer
			want := declared(f.EndToEnd)
			if traced {
				tr = newTracer()
				want = declared(f.PerLayer)
			}
			o, err := measure(w, defaultSeed, time.Millisecond, tr, 1)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			line, err := o.json()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var got struct {
				Metrics map[string]struct{ Unit string }
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			for name, unit := range want {
				if m, ok := got.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s (%s) printed as %+v, %v", w.name, traced, name, unit, m, ok)
				}
			}
			for name := range got.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: printed metric %s is not in BENCHMARK.json", w.name, traced, name)
				}
			}
		}
	}
}

// TestDayNightDocumentMatchesScenario pins the daynight workload's
// document to the scenario it stands for: it simulates exactly what
// scenarios.RunDayNight does with its defaults.
func TestDayNightDocumentMatchesScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulated days")
	}
	raw, err := dayNightDoc(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("daynight")
	r, err := w.run(defaultSeed, raw, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenarios.RunDayNight(scenarios.DayNightConfig{Seed: defaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.digests[0]; got != want.Result.Digest() {
		t.Errorf("document digest %s, scenario digest %s", got, want.Result.Digest())
	}
}
