// Command benchall regenerates the paper's evaluation: every table and
// figure of Section 5, printed as ASCII tables, plus the repository's own
// ordering-phase hot-path benchmark.
//
// Usage:
//
//	benchall [-quick] [-seed N] [-fig id] [-rescue] [-workload name]
//	         [-cpuprofile path] [-memprofile path]
//
// where id is one of: 1, t1, 10, 11, 12, 13, 14, 15, reorder, ablation,
// ordering, workload, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"fabricsharp/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "short measurement windows (5s virtual instead of 20s)")
	seed := flag.Int64("seed", 42, "random seed for every run")
	fig := flag.String("fig", "all", "which exhibit: 1, t1, 10, 11, 12, 13, 14, 15, reorder, ablation, ordering, workload, all")
	workloadName := flag.String("workload", "", "scenario for -fig workload (empty = every registered scenario)")
	rescue := flag.Bool("rescue", false, "run figures 10-14 with post-order re-execution on every system (the hybrid for fabric# and focc-s); off reproduces the paper's systems")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile after the runs to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	opts := bench.Options{Quick: *quick, Seed: *seed, Rescue: *rescue}
	start := time.Now()
	var tables []*bench.Table
	switch *fig {
	case "1":
		tables = []*bench.Table{bench.Figure1(opts)}
	case "t1":
		tables = []*bench.Table{bench.Table1()}
	case "10":
		tables = bench.Figure10(opts)
	case "11":
		tables = bench.Figure11(opts)
	case "12":
		tables = bench.Figure12(opts)
	case "13":
		tables = bench.Figure13(opts)
	case "14":
		tables = bench.Figure14(opts)
	case "15":
		tables = []*bench.Table{bench.Figure15(opts)}
	case "reorder":
		tables = []*bench.Table{bench.ReorderCost()}
	case "ablation":
		tables = bench.Ablations(opts)
	case "ordering":
		tbl, err := bench.Ordering(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ordering benchmark: %v\n", err)
			os.Exit(1)
		}
		tables = []*bench.Table{tbl}
	case "workload":
		var err error
		if tables, err = bench.ScenarioMatrixAll(opts, *workloadName); err != nil {
			for _, t := range tables {
				fmt.Println(t)
			}
			fmt.Fprintf(os.Stderr, "workload matrix: %v\n", err)
			os.Exit(1)
		}
	case "all":
		tables = bench.All(opts)
	default:
		fmt.Fprintf(os.Stderr, "unknown exhibit %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	for _, t := range tables {
		fmt.Println(t)
	}
	fmt.Printf("(regenerated in %.1fs, quick=%v, seed=%d)\n", time.Since(start).Seconds(), *quick, *seed)

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}
