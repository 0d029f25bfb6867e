package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its inputs and warms up; the
// median is reported as setup_s and the last set-up is measured.
const setupReps = 5

// tailBeyond is the number of samples the tail percentile leaves above
// it: latency_tail_ms is the highest percentile with this many samples
// beyond it at the run's sample count.
const tailBeyond = 10

// quality holds a workload's exact mapping-quality figures (METRICS).
type quality struct {
	ipcSum        float64 // Σ TotalIPC over distinct inputs
	contentionSum float64 // Σ over inputs and phases of the max contention
	dilationSum   float64 // Σ over inputs and phases of the max dilation
	imbalanceMean float64 // mean load imbalance over inputs
}

// outcome is what one workload run measured.
type outcome struct {
	window
	setups    []time.Duration // wall time of each set-up repetition
	attempted int
	failed    int
	problems  []string // correctness failures, for the report
	quality   quality
	inputs    int // distinct inputs the quality figures cover
	// tailGroup, when positive, splits the latencies into consecutive
	// groups of that many samples (one round of a workload with many
	// short operations); latency_tail_ms is then the median of the
	// groups' tails, so a few stalls of the shared machine move it less.
	tailGroup int
	// layers holds the per-layer metrics of a traced run, by name.
	layers map[string]float64
}

// fail counts one failed operation and remembers the first few reasons.
func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// repeatSetup runs setup setupReps times and returns each wall time.
// Callers keep the state the last repetition built.
func repeatSetup(setup func() error) ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(start))
	}
	return ds, nil
}

// memDelta is the change of the Go runtime's allocation and GC counters.
type memDelta struct {
	allocBytes, allocs, gcCycles uint64
	gcPause                      time.Duration
}

// window accumulates the measured part of a run, round by round. Only
// the operations themselves are timed: the checks a run makes between
// them (fingerprint comparisons, quality bookkeeping) fall outside it.
type window struct {
	lat    []time.Duration // latency of every operation
	rounds []roundTotals
	mem    memDelta // Go runtime counters over the operations
	// peakMB is the peak resident set read after the last operation.
	// peakScope says what it covers: "window" when the kernel let the
	// first round restart the count, else "process" (set-up included).
	peakMB    float64
	peakScope string
}

// roundTotals is one round's wall time, process CPU time and operations.
type roundTotals struct {
	wall, cpu time.Duration
	ops       int
}

// round starts a round of operations from a collected heap, so one
// round's garbage does not land on the next. The first round also
// returns set-up's garbage to the OS and restarts the peak-RSS count, so
// peak_rss_mb measures the operations, not the building of their inputs.
func (w *window) round() {
	if len(w.rounds) == 0 {
		debug.FreeOSMemory()
		w.peakScope = "process"
		if resetPeakRSS() {
			w.peakScope = "window"
		}
	} else {
		runtime.GC()
	}
	w.rounds = append(w.rounds, roundTotals{})
}

// op times fn as one operation of the current round.
func (w *window) op(fn func()) {
	w.lat = append(w.lat, w.timed(1, fn))
}

// timed runs fn, which completes ops operations, and adds its wall time,
// process CPU time and allocations to the current round. It returns the
// wall time.
func (w *window) timed(ops int, fn func()) time.Duration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	fn()
	d := time.Since(t0)
	r := &w.rounds[len(w.rounds)-1]
	r.cpu += cpuTime() - c0
	r.wall += d
	r.ops += ops
	runtime.ReadMemStats(&m1)
	w.mem.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	w.mem.allocs += m1.Mallocs - m0.Mallocs
	w.mem.gcCycles += uint64(m1.NumGC - m0.NumGC)
	w.mem.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	w.peakMB = peakRSSMB() // the count only grows, so the last read is the peak
	return d
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's count of this process's peak
// resident set (VmHWM) at the current resident set. It reports whether
// the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's peak resident set in MiB: VmHWM, which
// resetPeakRSS restarts, or the lifetime peak where that is unreadable.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of v; v is not reordered.
func median[T time.Duration | float64](v []T) T {
	if len(v) == 0 {
		return 0
	}
	s := append([]T(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile with tailBeyond samples above it,
// and that percentile. Fewer samples than that report the maximum.
func tail(ds []time.Duration) (time.Duration, float64) {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

// endToEndUnits are the metrics of an untraced run, in report order.
var endToEndUnits = []struct{ name, unit string }{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"ipc_sum", "volume"},
	{"contention_sum", "count"},
	{"dilation_sum", "hops"},
	{"imbalance_mean", "ratio"},
}

// tailOf is the run's latency_tail_ms, its percentile and the sample
// count it is taken at.
func tailOf(o *outcome) (time.Duration, float64, int) {
	if o.tailGroup <= 0 || o.tailGroup >= len(o.lat) {
		t, pct := tail(o.lat)
		return t, pct, len(o.lat)
	}
	var tails []time.Duration
	var pct float64
	for i := 0; i+o.tailGroup <= len(o.lat); i += o.tailGroup {
		var t time.Duration
		t, pct = tail(o.lat[i : i+o.tailGroup])
		tails = append(tails, t)
	}
	return median(tails), pct, o.tailGroup
}

func endToEnd(o *outcome) map[string]float64 {
	var rate, cpu []float64
	for _, r := range o.rounds {
		if r.ops > 0 {
			rate = append(rate, float64(r.ops)/r.wall.Seconds())
			cpu = append(cpu, ms(r.cpu)/float64(r.ops))
		}
	}
	tl, _, _ := tailOf(o)
	v := map[string]float64{
		"latency_p50_ms":   ms(median(o.lat)),
		"latency_tail_ms":  ms(tl),
		"throughput_per_s": median(rate),
		"cpu_ms_per_op":    median(cpu),
		"peak_rss_mb":      o.peakMB,
		"setup_s":          median(o.setups).Seconds(),
		"ipc_sum":          o.quality.ipcSum,
		"contention_sum":   o.quality.contentionSum,
		"dilation_sum":     o.quality.dilationSum,
		"imbalance_mean":   o.quality.imbalanceMean,
	}
	return v
}

// perLayerUnits are the metrics of a traced run, in report order. A
// layer a workload does not exercise reports 0.
var perLayerUnits = []struct{ name, unit string }{
	{"route.ms", "ms"},
	{"route.rounds", "count"},
	{"route.hops", "count"},
	{"contract.ms", "ms"},
	{"embed.ms", "ms"},
	{"core.dispatch_self_ms", "ms"},
	{"core.classes_tried", "count"},
	{"metrics.ms", "ms"},
	{"check.ms", "ms"},
	{"multilevel.contract_ms", "ms"},
	{"multilevel.embed_ms", "ms"},
	{"multilevel.levels", "count"},
	{"multilevel.coarsest_tasks", "count"},
	{"multilevel.refine_moves", "count"},
	{"larcs.parse_ms", "ms"},
	{"larcs.format_ms", "ms"},
	{"topology.parse_spec_ms", "ms"},
	{"check.fingerprint_ms", "ms"},
	{"larcs.compile_ms", "ms"},
	{"serve.map_ms", "ms"},
	{"serve.metrics_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.hit_ms", "ms"},
	{"serve.miss_ms", "ms"},
	{"serve.hits", "count"},
	{"serve.misses", "count"},
	{"serve.hit_ratio", "ratio"},
	{"serve.evictions", "count"},
	{"serve.deduped", "count"},
	{"serve.rejected", "count"},
	{"serve.errors", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"unattributed_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// run executes one benchmark invocation and returns the result line and
// a human-readable report to print before it.
func run(cfg config) (*result, string, error) {
	runner := workloads[cfg.workload]
	var b strings.Builder
	prov := provenance(cfg)
	res := &result{Metrics: map[string]metric{}}
	var o *outcome
	if !cfg.trace {
		var err error
		if o, err = runner(cfg, nil); err != nil {
			return nil, "", err
		}
		vals := endToEnd(o)
		_, pct, group := tailOf(o)
		prov["samples"] = len(o.lat)
		prov["tail_percentile"] = pct
		prov["tail_samples"] = group
		prov["peak_rss_scope"] = o.peakScope
		for _, m := range endToEndUnits {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
			fmt.Fprintf(&b, "%-18s %14.6g %-7s samples=%d\n", m.name, vals[m.name], m.unit, sampleCount(m.name, o))
		}
		if group == len(o.lat) {
			fmt.Fprintf(&b, "latency_tail_ms is p%.2f of %d samples\n", pct, group)
		} else {
			fmt.Fprintf(&b, "latency_tail_ms is the median over %d groups of p%.2f of %d samples\n", len(o.lat)/group, pct, group)
		}
	} else {
		// The traced mode splits the work in two: an untraced half gives
		// the reference e2e latency and the Go runtime counters, a traced
		// half gives the spans. Their difference is the tracing overhead.
		half := cfg
		half.scale /= 2
		plain, err := runner(half, nil)
		if err != nil {
			return nil, "", err
		}
		tr := newTracer()
		if o, err = runner(half, tr); err != nil {
			return nil, "", err
		}
		ops := float64(len(plain.lat))
		vals := map[string]float64{
			"go.alloc_bytes_per_op": float64(plain.mem.allocBytes) / ops,
			"go.allocs_per_op":      float64(plain.mem.allocs) / ops,
			"go.gc_cycles":          float64(plain.mem.gcCycles),
			"go.gc_pause_ms":        ms(plain.mem.gcPause),
			"trace.overhead_ms":     meanMS(o.lat) - meanMS(plain.lat),
		}
		for k, v := range o.layers {
			vals[k] = v
		}
		o.attempted += plain.attempted
		o.failed += plain.failed
		o.problems = append(o.problems, plain.problems...)
		for _, m := range perLayerUnits {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
			fmt.Fprintf(&b, "%-26s %14.6g %s\n", m.name, vals[m.name], m.unit)
		}
		fmt.Fprintf(&b, "traced e2e mean %.4f ms/op vs untraced %.4f ms/op over %d ops each\n",
			meanMS(o.lat), meanMS(plain.lat), len(o.lat))
		path, err := tr.write(cfg)
		if err != nil {
			return nil, "", err
		}
		fmt.Fprintf(&b, "spans: %d written to %s\n", len(tr.spans), path)
	}
	res.Attempted, res.Failed = o.attempted, o.failed
	res.Correct = o.failed == 0 && len(o.problems) == 0 && o.attempted > 0
	for _, p := range o.problems {
		fmt.Fprintf(&b, "problem: %s\n", p)
	}
	line, err := json.Marshal(map[string]interface{}{"provenance": prov})
	if err != nil {
		return nil, "", err
	}
	b.Write(line)
	b.WriteByte('\n')
	return res, b.String(), nil
}

// sampleCount is how many measurements stand behind an end-to-end value.
func sampleCount(name string, o *outcome) int {
	switch name {
	case "setup_s":
		return len(o.setups)
	case "peak_rss_mb":
		return 1
	case "ipc_sum", "contention_sum", "dilation_sum", "imbalance_mean":
		return o.inputs
	}
	return len(o.lat)
}

// provenance records where and how the numbers were made. Numbers from
// different machines are not comparable.
func provenance(cfg config) map[string]interface{} {
	return map[string]interface{}{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// roundsFor is the number of rounds a run makes: perSecond rounds per
// nominal second, scaled by the run's work factor, and at least two, so
// every input is repeated.
func roundsFor(cfg config, perSecond float64) int {
	return max(2, int(math.Round(perSecond*float64(cfg.seconds)*cfg.scale)))
}
