// Command cxrpq-bench measures cxrpq-serve end to end and layer by layer.
//
// It builds cmd/cxrpq-serve from the checkout it runs in, generates graphs
// and request lists from -seed, starts a fresh server, warms it, drives it
// over HTTP with a list of ops sized to take -seconds, checks every answer it
// can, and prints each metric as "name value unit" followed by one JSON line. bench/README.md describes
// the workloads and the metrics; BENCHMARK.json holds the bounds.
//
//	cxrpq-bench -workload crpq_cold -seed 1 -seconds 14 -trace 0   one run
//	cxrpq-bench -reps 5 [-workload w]       median and range over seeds, appended to bench/history.jsonl
//	cxrpq-bench -selfcheck                  two sets of -reps runs; exit 1 if they disagree beyond the bounds
//	cxrpq-bench -smoke                      every workload for about a second, every answer checked
//	cxrpq-bench -update-golden              recompute bench/golden for the default seed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

const defaultSeed = 1

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// benchDir holds spec/, golden/ and history.jsonl, relative to the root of
// the checkout, which is where the benchmark is run from.
const benchDir = "bench"

func main() {
	workload := flag.String("workload", "", "workload to run (one of "+strings.Join(workloadNames, ", ")+"); empty means all, where a mode allows it")
	seed := flag.Int64("seed", defaultSeed, "seed of the generated graphs, requests and updates")
	seconds := flag.Float64("seconds", 0, "nominal length of the measured phase, which sends ops_per_s (spec) times this many ops (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: halve the measured list, replay the ops in process under spans and print the per-layer metrics instead of the end-to-end ones")
	outDir := flag.String("out", filepath.Join(".bench_build", "out"), "scratch directory: server binary, graph files, data directories, trace-<workload>.jsonl")
	reps := flag.Int("reps", 0, "run each workload this many times on consecutive seeds and report median and range")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of -reps runs (default 5) and fail if any end-to-end median differs beyond its bound")
	smoke := flag.Bool("smoke", false, "run every workload briefly with every answer checked; correctness only")
	updateGolden := flag.Bool("update-golden", false, "recompute the golden answers of the default seed")
	flag.Parse()

	// A killed driver must not leave its server behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if p := runningServer.Load(); p != nil {
			p.Kill()
		}
		os.Exit(1)
	}()

	if err := run(*workload, *seed, *seconds, *trace == 1, *outDir, *reps, *selfcheck, *smoke, *updateGolden); err != nil {
		fmt.Fprintln(os.Stderr, "cxrpq-bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace bool, outDir string, reps int, selfcheck, smoke, updateGolden bool) error {
	if workload != "" && !slices.Contains(workloadNames, workload) {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if updateGolden {
		return regenerateGolden(benchDir, workload)
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(bf.RunSeconds)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	serveBin, err := buildServer(outDir)
	if err != nil {
		return err
	}
	cfg := runConfig{seed: seed, seconds: seconds, trace: trace, setups: 5,
		outDir: outDir, serveBin: serveBin}
	workloads := workloadNames
	if workload != "" {
		workloads = []string{workload}
	}
	switch {
	case smoke:
		return runSmoke(cfg, workloads)
	case selfcheck:
		if reps <= 0 {
			reps = 5
		}
		return runSelfcheck(cfg, bf, workloads, reps)
	case reps > 0:
		_, err := runSet(cfg, bf, workloads, reps, "reps")
		return err
	}
	if workload == "" {
		return fmt.Errorf("-workload is required for a single run")
	}
	cfg.workload = workload
	res, err := runWorkload(&cfg)
	if err != nil {
		return err
	}
	printResult(res, trace)
	if err := checkNames(bf, res, trace); err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("%d of %d checks failed", res.failed, res.attempted)
	}
	return nil
}

// checkNames fails the run when the metrics printed are not exactly the ones
// BENCHMARK.json declares for this kind of run, so the two cannot drift.
func checkNames(bf *benchmarkFile, res *runResult, trace bool) error {
	want := metricOrder(bf, trace)
	got := map[string]bool{}
	for _, m := range res.metrics(trace) {
		got[m.Name] = true
	}
	for _, n := range want {
		if !got[n] {
			return fmt.Errorf("BENCHMARK.json declares %s, which this run did not report", n)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("this run reported %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	return nil
}

// printResult writes the metric lines and, last, the JSON line of the
// benchmark contract.
func printResult(res *runResult, trace bool) {
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics(trace) {
		fmt.Printf("%s %v %s\n", m.Name, m.Value, m.Unit)
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}

func runSmoke(cfg runConfig, workloads []string) error {
	cfg.seconds, cfg.setups, cfg.verifyAll, cfg.trace = 1, 1, true, false
	bad := 0
	for _, w := range workloads {
		cfg.workload = w
		start := time.Now()
		res, err := runWorkload(&cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		status := "ok"
		if res.failed > 0 {
			status = "FAIL"
			bad++
		}
		fmt.Printf("%-12s %s  %d checks, %d failed, %.1f s\n", w, status, res.attempted, res.failed, time.Since(start).Seconds())
		for _, f := range res.failures {
			fmt.Println("  ", f)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workloads failed", bad)
	}
	return nil
}

// setSummary is the outcome of one set: per workload and end-to-end metric
// the values of the reps.
type setSummary map[string]map[string][]float64

// runSet runs every workload reps times on consecutive seeds, prints median
// and range per metric, and appends one history record per workload.
func runSet(cfg runConfig, bf *benchmarkFile, workloads []string, reps int, label string) (setSummary, error) {
	sum := setSummary{}
	for _, w := range workloads {
		cfg.workload = w
		sum[w] = map[string][]float64{}
		units := map[string]string{}
		for r := 0; r < reps; r++ {
			c := cfg
			c.seed = cfg.seed + int64(r)
			res, err := runWorkload(&c)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w, c.seed, err)
			}
			if res.failed > 0 {
				return nil, fmt.Errorf("%s seed %d: %d of %d checks failed: %v", w, c.seed, res.failed, res.attempted, res.failures)
			}
			for _, m := range res.metrics(cfg.trace) {
				sum[w][m.Name] = append(sum[w][m.Name], m.Value)
				units[m.Name] = m.Unit
			}
		}
		fmt.Printf("%s (%s, %d runs, seeds %d..%d)\n", w, label, reps, cfg.seed, cfg.seed+int64(reps)-1)
		rec := historyRecord(cfg, w, label, reps)
		for _, e := range metricOrder(bf, cfg.trace) {
			v, ok := sum[w][e]
			if !ok {
				continue
			}
			fmt.Printf("  %-28s median %-12.5g min %-12.5g max %-12.5g spread %.3f %s\n",
				e, median(v), quantile(v, 0), quantile(v, 1), spread(v), units[e])
			rec.Metrics[e] = historyMetric{median(v), quantile(v, 0), quantile(v, 1), units[e]}
		}
		if err := appendHistory(rec); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

func metricOrder(bf *benchmarkFile, trace bool) []string {
	var names []string
	if trace {
		for _, m := range bf.PerLayer {
			names = append(names, m.Name)
		}
		return names
	}
	for _, m := range bf.EndToEnd {
		names = append(names, m.Name)
	}
	return names
}

// runSelfcheck runs two sets back to back and applies to them the rule the
// benchmark contract accepts a benchmark by: for every workload and
// end-to-end metric the second median may not be worse than the first by
// more than the bound, and the spread of each set must stay within the
// bound. The contract exempts setup_s from the spread rule (its median over
// the seeds is held to the bound, its spread is not), and so does this.
func runSelfcheck(cfg runConfig, bf *benchmarkFile, workloads []string, reps int) error {
	cfg.trace = false
	first, err := runSet(cfg, bf, workloads, reps, "selfcheck-1")
	if err != nil {
		return err
	}
	second, err := runSet(cfg, bf, workloads, reps, "selfcheck-2")
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range workloads {
		for _, e := range bf.EndToEnd {
			a, b := median(first[w][e.Name]), median(second[w][e.Name])
			worse := (b - a) / a
			if e.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if worse > e.Bound {
				verdict = "DISAGREE"
				bad++
			}
			for _, set := range []setSummary{first, second} {
				if s := spread(set[w][e.Name]); e.Name != "setup_s" && s > e.Bound {
					verdict = fmt.Sprintf("SPREAD %.3f", s)
					bad++
				}
			}
			fmt.Printf("%-12s %-24s %12.5g %12.5g  %+6.1f%% (bound %.0f%%) %s\n", w, e.Name, a, b, 100*worse, 100*e.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs outside their bounds", bad)
	}
	return nil
}

type historyMetric struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Unit   string  `json:"unit"`
}

type history struct {
	Time       string                   `json:"time"`
	Commit     string                   `json:"commit"`
	Go         string                   `json:"go"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	NProc      int                      `json:"nproc"`
	Kernel     string                   `json:"kernel"`
	Workload   string                   `json:"workload"`
	Label      string                   `json:"label"`
	Seed       int64                    `json:"seed"`
	Reps       int                      `json:"reps"`
	Seconds    float64                  `json:"seconds"`
	Trace      bool                     `json:"trace"`
	Metrics    map[string]historyMetric `json:"metrics"`
}

func historyRecord(cfg runConfig, workload, label string, reps int) *history {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return &history{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit, Go: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Kernel: strings.TrimSpace(string(kernel)),
		Workload: workload, Label: label, Seed: cfg.seed, Reps: reps, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: map[string]historyMetric{},
	}
}

// appendHistory adds one line to bench/history.jsonl; the file only grows.
func appendHistory(rec *history) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(benchDir, "history.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// regenerateGolden recomputes the pins of the default seed in process: the
// literal templates at the base revision and the first golden_ops ops of the
// measured list. It also enforces the row cap on everything it evaluates.
func regenerateGolden(benchDir, workload string) error {
	workloads := workloadNames
	if workload != "" {
		workloads = []string{workload}
	}
	for _, w := range workloads {
		spec, err := loadSpec(benchDir, w)
		if err != nil {
			return err
		}
		in, err := generateInputs(spec, defaultSeed, max(1, spec.GoldenOps))
		if err != nil {
			return err
		}
		g := &golden{Workload: w, Seed: defaultSeed, Pins: map[string]pin{}}
		dbs := dbCache{}
		pinOp := func(key string, o *op) error {
			db, err := inProcessDB(in, dbs, o.DB)
			if err != nil {
				return err
			}
			d, err := evalDigest(db, o)
			if err != nil {
				return fmt.Errorf("%s %s (%s): %w", w, key, o.Template, err)
			}
			if d.Count > rowCap {
				return fmt.Errorf("%s %s (%s): %d rows exceed the cap of %d", w, key, o.Template, d.Count, rowCap)
			}
			g.Pins[key] = pinOf(d)
			return nil
		}
		for i := range in.literals {
			if err := pinOp("lit:"+in.literals[i].Template, &in.literals[i]); err != nil {
				return err
			}
		}
		if spec.Update == nil {
			for i := 0; i < spec.GoldenOps && i < len(in.ops); i++ {
				if err := pinOp(fmt.Sprintf("op:%d", i), &in.ops[i]); err != nil {
					return err
				}
			}
		}
		if err := writeGolden(benchDir, g); err != nil {
			return err
		}
		fmt.Printf("%s: %d pins written to %s\n", w, len(g.Pins), goldenPath(benchDir, w, defaultSeed))
	}
	return nil
}
