// Command cxrpq-exp runs the paper-reproduction experiment suite (E1–E18,
// internal/exp) and prints one table per experiment. -cpuprofile/-memprofile
// write runtime/pprof profiles of the run. Timings across commits are the
// business of bench/ (see bench/README.md), not of this command.
//
// Usage:
//
//	cxrpq-exp [-scale 1] [-only E5,E11] [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"cxrpq/internal/exp"
)

func main() {
	os.Exit(run())
}

// run carries the whole command so the profile-writing defers execute
// before the process exits (os.Exit in main would skip them).
func run() int {
	scale := flag.Int("scale", 1, "workload scale factor (1 = fast)")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cxrpq-exp:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cxrpq-exp:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cxrpq-exp:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cxrpq-exp:", err)
			}
		}()
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(id)
		if id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	failed := false
	for _, t := range exp.All(*scale) {
		if len(want) > 0 && !want[strings.ToUpper(t.ID)] {
			continue
		}
		fmt.Println(t.Render())
		if t.Err != nil {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}
