package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"btpub/internal/stats"
)

// cmpRow compares one end-to-end metric on one workload between two
// sets of runs.
type cmpRow struct {
	Workload, Metric string
	N                int     // runs per side (the smaller)
	A, B             float64 // medians
	SpreadA, SpreadB float64 // quartile spread as a share of the median
	Worse            float64 // share of A by which B is worse (negative: better)
	Back             float64 // share of B by which A is worse
	Bound            float64
	Status           string
}

const (
	statusOK         = "ok"
	statusBetter     = "better"
	statusWorse      = "WORSE"
	statusUnresolved = "unresolved"
)

// worseBy is the share of a by which b is worse, given the metric's
// direction; negative when b is better.
func worseBy(m metricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// compare builds one row per (workload, end-to-end metric) that both
// sides measured. A metric whose run-to-run spread exceeds its bound is
// unresolved — neither unchanged nor regressed — unless every run of B
// reads better than every run of A.
func compare(spec *benchSpec, a, b []*result) []cmpRow {
	var rows []cmpRow
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xs, ys := valuesOf(a, w.Name, m.Name), valuesOf(b, w.Name, m.Name)
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			row := cmpRow{
				Workload: w.Name, Metric: m.Name, N: min(len(xs), len(ys)),
				A: stats.Median(xs), B: stats.Median(ys),
				SpreadA: quartileSpread(xs), SpreadB: quartileSpread(ys),
				Bound: m.Bound,
			}
			row.Worse, row.Back = worseBy(m, row.A, row.B), worseBy(m, row.B, row.A)
			allBetter := true
			for _, x := range xs {
				for _, y := range ys {
					if worseBy(m, x, y) >= 0 {
						allBetter = false
					}
				}
			}
			switch {
			case allBetter:
				row.Status = statusBetter
			case max(row.SpreadA, row.SpreadB) > m.Bound:
				row.Status = statusUnresolved
			case row.Worse > m.Bound:
				row.Status = statusWorse
			default:
				row.Status = statusOK
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// valuesOf collects one end-to-end metric's value from every untraced
// run of a workload.
func valuesOf(runs []*result, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload == workload && !r.Trace {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

func printComparison(w io.Writer, rows []cmpRow) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tn\tmedian A\tmedian B\tB worse by\tbound\tspread A\tspread B\tstatus")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
			r.Workload, r.Metric, r.N, r.A, r.B, r.Worse*100, r.Bound*100, r.SpreadA*100, r.SpreadB*100, r.Status)
	}
	tw.Flush()
}

func (e *env) compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare A.json B.json")
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	for _, f := range []*resultsFile{a, b} {
		c := f.Context
		fmt.Printf("%s: %d cpu (GOMAXPROCS %d) %s, %s, rev %s, %d runs\n",
			c.When, c.NumCPU, c.GOMAXPROCS, c.CPUModel, c.GoVersion, c.GitRev, len(f.Runs))
	}
	if a.Context.NumCPU != b.Context.NumCPU || a.Context.CPUModel != b.Context.CPUModel || a.Context.GoVersion != b.Context.GoVersion {
		fmt.Println("warning: the two files come from different machines or toolchains; the comparison below means little")
	}
	printComparison(os.Stdout, compare(e.spec, a.Runs, b.Runs))
	return nil
}

// selfcheckCmd is the acceptance test a benchmark has to pass before
// its numbers can judge anything else: the same code measured twice
// (sets A and B, interleaved, each -runs seeds per workload) must agree
// within every metric's own bound, and no metric's spread across seeds
// may exceed its bound. Set-up time is exempt from the spread rule: it
// is measured once per run.
func (e *env) selfcheckCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	seed := fs.Uint64("seed", 23, "first seed; run i of a set uses seed+i")
	runs := fs.Int("runs", 3, "runs per workload in each of the two sets")
	secs := fs.Int("seconds", e.spec.RunSeconds, "budget of each timed part, in seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 || *secs < 1 {
		return fmt.Errorf("-runs and -seconds must be at least 1")
	}
	sets := [2]*resultsFile{{Context: machineContext()}, {Context: machineContext()}}
	for i := 0; i < *runs; i++ {
		for _, w := range e.spec.Workloads {
			for side := range sets {
				side = (side + i) % 2 // alternate which set goes first
				res, err := e.runWorkload(ctx, w.Name, *seed+uint64(i), time.Duration(*secs)*time.Second, false)
				if err != nil {
					return err
				}
				if !res.Correct || res.Failed > 0 {
					printResult(os.Stdout, e.spec, res)
					return fmt.Errorf("%s seed %d: incorrect output or failed operations", w.Name, res.Seed)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d set %c done\n", w.Name, res.Seed, 'A'+side)
				sets[side].Runs = append(sets[side].Runs, res)
			}
		}
	}
	for side, f := range sets {
		if err := f.write(filepath.Join(e.outDir, fmt.Sprintf("selfcheck-%c.json", 'A'+side))); err != nil {
			return err
		}
	}
	rows := compare(e.spec, sets[0].Runs, sets[1].Runs)
	printComparison(os.Stdout, rows)
	bad := 0
	for _, r := range rows {
		disagree := r.Worse > r.Bound || r.Back > r.Bound
		unsteady := r.Metric != "setup_s" && max(r.SpreadA, r.SpreadB) > r.Bound
		if disagree || unsteady {
			bad++
			fmt.Printf("FAIL %s %s: disagree=%v unsteady=%v\n", r.Workload, r.Metric, disagree, unsteady)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d of %d metrics outside their bounds", bad, len(rows))
	}
	fmt.Printf("selfcheck: %d metrics agree within their bounds\n", len(rows))
	return nil
}
