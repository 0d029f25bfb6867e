// Command perfbench is the repository's end-to-end benchmark. It drives
// the OREGAMI system from outside, through the same public functions a
// caller uses, on three seeded workloads:
//
//   - map-arbitrary:  random task graphs through core.Map's arbitrary
//     class (MWM-Contract, NN-Embed, MM-Route) plus METRICS;
//   - map-multilevel: grid stencils through multilevel.Map onto a
//     512-PE hierarchy;
//   - mapd-mixed:     the mapd HTTP handler, in-process, serving a hot
//     set of cache hits and a stream of unique misses.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every run does a fixed amount of work (sized from --seconds), checks
// every output, and prints the metrics as the last line of standard
// output in one JSON object. With --trace 0 the object holds the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// traced run. README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scale multiplies the amount of work; 1 is the benchmark size.
	scale float64
	// tiny shrinks the inputs themselves, for the self-test.
	tiny bool
	// traceDir receives the span file of a traced run.
	traceDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *tracer) (*outcome, error){
	"map-arbitrary":  runArbitrary,
	"map-multilevel": runMultilevel,
	"mapd-mixed":     runMapd,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, report, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Print(report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := config{scale: 1}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 20, "nominal measured seconds (sets the fixed amount of work)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer mode")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return cfg, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, names)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds must be >= 1, got %d", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}
