package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// tinyConfig is a run small enough for a unit test.
func tinyConfig(t *testing.T, workload string, seed int64, trace bool) config {
	return config{
		workload: workload,
		seed:     seed,
		seconds:  1,
		trace:    trace,
		scale:    1,
		tiny:     true,
		traceDir: t.TempDir(),
	}
}

// exactMetrics are the metrics that must repeat bit for bit on the same
// seed: mapping quality and the counts the layers report.
var exactMetrics = map[bool][]string{
	false: {"ipc_sum", "contention_sum", "dilation_sum", "imbalance_mean"},
	true: {"route.rounds", "route.hops", "core.classes_tried", "multilevel.levels",
		"multilevel.coarsest_tasks", "multilevel.refine_moves", "serve.hits", "serve.misses"},
}

func TestRunsRepeatExactly(t *testing.T) {
	for _, name := range []string{"map-arbitrary", "map-multilevel", "mapd-mixed"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				var first map[string]metric
				for rep := 0; rep < 2; rep++ {
					res, report, err := run(tinyConfig(t, name, 7, trace))
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
						t.Fatalf("run not correct: %+v\n%s", res, report)
					}
					if rep == 0 {
						first = res.Metrics
						continue
					}
					for _, m := range exactMetrics[trace] {
						a, b := first[m].Value, res.Metrics[m].Value
						if math.Float64bits(a) != math.Float64bits(b) {
							t.Errorf("%s: %v then %v on the same seed", m, a, b)
						}
					}
				}
			})
		}
	}
}

func TestEveryMetricReported(t *testing.T) {
	res, _, err := run(tinyConfig(t, "map-arbitrary", 1, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEndUnits {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("%s: got %+v", m.name, got)
		}
		if got.Value == 0 {
			t.Errorf("%s is 0", m.name)
		}
	}
	if len(res.Metrics) != len(endToEndUnits) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEndUnits))
	}
}

// inputs renders a workload's generated inputs.
func inputs(t *testing.T, workload string, seed int64) string {
	cfg := tinyConfig(t, workload, seed, false)
	var b strings.Builder
	switch workload {
	case "map-arbitrary":
		in, err := arbitraryGraphs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range in {
			for _, p := range x.comp.Graph.Comm {
				fmt.Fprintf(&b, "%s %v\n", x.net.Name, p.Edges)
			}
		}
	case "map-multilevel":
		in, err := multilevelInputs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range in {
			fmt.Fprintln(&b, g.Name)
		}
	case "mapd-mixed":
		plan, _, err := mapdSchedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, round := range plan.rounds {
			for _, req := range round {
				b.Write(req.body)
			}
		}
	}
	return b.String()
}

func TestSeedChangesInputs(t *testing.T) {
	for _, name := range []string{"map-arbitrary", "map-multilevel", "mapd-mixed"} {
		a, again, b := inputs(t, name, 1), inputs(t, name, 1), inputs(t, name, 2)
		if a != again {
			t.Errorf("%s: the same seed built different inputs", name)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 built the same inputs", name)
		}
	}
}

func TestTail(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(100 - i)
	}
	v, pct := tail(lat)
	if v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
}

func TestTracerNestsObservedStages(t *testing.T) {
	tr := newTracer()
	op := tr.begin("op", -1, 1)
	sp := tr.begin("core.map", op, 1)
	// Stages report on completion, nested ones first, as core.Map's
	// Observe hook does.
	stage := func(name string, start time.Time) { tr.completed(name, time.Since(start), sp, 1) }
	work := func() time.Time { t0 := time.Now(); time.Sleep(2 * time.Millisecond); return t0 }
	dispatch := time.Now()
	stage("contract", work())
	stage("embed", work())
	stage("dispatch", dispatch)
	stage("route", work())
	tr.end(sp)
	tr.end(op)

	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[s.Name] = s
	}
	want := map[string]string{"core.map": "op", "contract": "dispatch", "embed": "dispatch", "dispatch": "core.map", "route": "core.map"}
	for name, p := range want {
		if s := byName[name]; s.Parent < 0 || tr.spans[s.Parent].Name != p {
			t.Errorf("%s: parent %d, want %q", name, s.Parent, p)
		}
	}
	dur := func(name string) time.Duration { s := byName[name]; return time.Duration(s.End - s.Start) }
	if got, want := tr.selfTimes()["dispatch"], dur("dispatch")-dur("contract")-dur("embed"); got != want {
		t.Errorf("dispatch self time %v, want %v", got, want)
	}
}
