// Command bench is the repository's one benchmark: four workloads that
// drive the whole pipeline (crawl → lake → refresh → alert → /api/v1)
// through the layers' public functions, check what comes out against
// oracles, and print every metric by name with unit, direction and
// regression bound. See README.md for the workloads and the
// layer → metric → workload map.
//
//	bash bench/run.sh --workload live_replay --seed 23 --seconds 10 --trace 0
//	bash bench/run.sh -seed 23 -trace 1          # every workload, both modes
//	bash bench/run.sh compare A.json B.json
//	bash bench/run.sh selfcheck -runs 10
//	bash bench/run.sh check                      # gofmt, vet, btpub-vet, unit tests
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// workloads maps BENCHMARK.json's workload names to their code.
var workloads = map[string]func(context.Context, *run) error{
	"crawl_to_lake":    crawlToLake,
	"live_replay":      liveReplay,
	"api_read_mix":     func(ctx context.Context, r *run) error { return apiWorkload(ctx, r, false) },
	"api_under_ingest": func(ctx context.Context, r *run) error { return apiWorkload(ctx, r, true) },
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := dispatch(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// env is what every subcommand needs: the contract, and where output
// goes.
type env struct {
	spec   *benchSpec
	outDir string
}

func dispatch(ctx context.Context, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	e := &env{spec: spec, outDir: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	if len(args) > 0 && args[0] == "compare" {
		return e.compareCmd(args[1:])
	}
	// The layers under test log through the standard logger (lakeserve
	// writes a line per refresh); standard output is for metrics only. The
	// file holds the last invocation's log, so a checkout that is run a
	// hundred times does not grow.
	logFile, err := os.OpenFile(filepath.Join(e.outDir, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer logFile.Close()
	log.SetOutput(logFile)
	if len(args) > 0 && args[0] == "selfcheck" {
		return e.selfcheckCmd(ctx, args[1:])
	}
	return e.runCmd(ctx, args)
}

// runCmd runs one workload (the driver's form) or, without -workload,
// all of them.
func (e *env) runCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: all of BENCHMARK.json's)")
	seed := fs.Uint64("seed", 23, "seed of what the harness generates: request schedule, slice phase")
	secs := fs.Int("seconds", e.spec.RunSeconds, "budget of the timed part, in seconds: it sizes rounds, slices and the API clock")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run (without -workload: both)")
	out := fs.String("out", filepath.Join(e.outDir, "results.json"), "results file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *secs < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	file := &resultsFile{Context: machineContext()}
	var last *result
	do := func(name string, traced bool) error {
		res, err := e.runWorkload(ctx, name, *seed, time.Duration(*secs)*time.Second, traced)
		if err != nil {
			return err
		}
		printResult(os.Stdout, e.spec, res)
		file.Runs = append(file.Runs, res)
		last = res
		return nil
	}
	if *workload != "" {
		if err := do(*workload, *trace == 1); err != nil {
			return err
		}
	} else {
		for _, w := range e.spec.Workloads {
			if err := do(w.Name, false); err != nil {
				return err
			}
			if *trace == 1 {
				if err := do(w.Name, true); err != nil {
					return err
				}
			}
		}
	}
	if err := file.write(*out); err != nil {
		return err
	}
	if *workload == "" {
		for _, res := range file.Runs {
			if !res.Correct {
				return fmt.Errorf("%s: an oracle failed (see above)", res.Workload)
			}
		}
		return nil
	}
	// The driver reads the last line: exactly these four keys.
	return json.NewEncoder(os.Stdout).Encode(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
}

// runWorkload runs one workload once, start to finish: set-up, timed
// part, oracles, and (traced) the trace file.
func (e *env) runWorkload(ctx context.Context, name string, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	fn, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	// Start every run from the same heap: earlier runs in this process
	// (selfcheck, all-workloads mode) must not set this one's GC pace.
	runtime.GC()
	debug.FreeOSMemory()
	r, err := newRun(name, seed, seconds, e.outDir, traced)
	if err != nil {
		return nil, err
	}
	defer r.tmp.cleanup()
	if err := fn(ctx, r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if traced {
		spans := r.tr.all()
		r.set("trace_overhead_ratio", ratio(float64(spanCost())*float64(len(spans)), float64(r.timedWall)))
		if err := writeTrace(filepath.Join(e.outDir, "trace-"+name+".jsonl"), spans); err != nil {
			return nil, err
		}
	}
	return r.finish(e.spec), nil
}

// printResult lists the run's metrics in BENCHMARK.json's order, each
// with unit, direction and (end-to-end) the bound it may worsen by.
func printResult(w io.Writer, spec *benchSpec, res *result) {
	mode := "end-to-end, tracing off"
	if res.Trace {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%d (%s): attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Seconds, mode, res.Attempted, res.Failed, res.Correct)
	for _, m := range spec.metrics(res.Trace) {
		line := fmt.Sprintf("%-36s %16.6g %-6s %s is better", m.Name, res.Metrics[m.Name].Value, m.Unit, m.Better)
		if !res.Trace {
			line += fmt.Sprintf(", may worsen by %g%%", m.Bound*100)
		}
		fmt.Fprintln(w, line)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
}
