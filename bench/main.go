// Command bench is the repository's benchmark: four workloads driven
// through the program's public functions, end-to-end metrics from a run
// with tracing off, per-layer metrics and a span file from a traced run,
// and a correctness gate after every workload. See README.md.
//
// One run, as the benchmark driver makes it:
//
//	bench --workload oltp_wan --seed 7 --seconds 20 --trace 0
//
// The whole suite into a result file, and two result files compared:
//
//	bench -out results/BENCH_11.json
//	bench -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print its result as the last line (default: run the whole suite)")
		seed      = flag.Int64("seed", 1, "seed for key choice, op mix, network jitter and transfer targets")
		seconds   = flag.Int("seconds", 20, "measured seconds per run")
		traced    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics with tracing off, 1 the per-layer metrics of a traced run")
		out       = flag.String("out", "", "suite mode: write the result file here")
		runs      = flag.Int("runs", 1, "suite mode: runs per workload, on consecutive seeds; the file holds medians and spreads")
		smoke     = flag.Bool("smoke", false, "1 s per run, for exercising every code path quickly")
		compare   = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 on a regression")
		stateDir  = flag.String("state-dir", "", "where runtimes keep their files (default: /dev/shm when writable, else .bench_build/state under the working directory)")
		printJSON = flag.Bool("benchmark-json", false, "print BENCHMARK.json from the metric and workload tables and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	switch {
	case *printJSON:
		exitOn(json.NewEncoder(os.Stdout).Encode(benchmarkJSON()))
	case *compare:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		exitOn(err)
		if regressed {
			os.Exit(1)
		}
	default:
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		measure := time.Duration(*seconds) * time.Second
		if *smoke {
			measure = time.Second
		}
		cfg := runConfig{
			Workload: *workload, Seed: *seed, Measure: measure, Traced: *traced != 0,
			Smoke: *smoke, StateDir: *stateDir, ResultsDir: resultsDir(),
		}
		if *workload != "" {
			exitOn(single(ctx, cfg))
			return
		}
		exitOn(suite(ctx, cfg, *runs, *out))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// resultsDir is bench/results when run from the repository root and
// results when run from the bench directory itself.
func resultsDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "results")
	}
	return "results"
}

// single makes one run and prints, as the last line of standard output,
// the object the benchmark driver reads.
func single(ctx context.Context, cfg runConfig) error {
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	reported := res.EndToEnd
	if cfg.Traced {
		reported = res.PerLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, make(map[string]metric)}
	for name, v := range reported {
		line.Metrics[name] = metric{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !res.Correct {
		return fmt.Errorf("%s: correctness gate failed", res.Workload)
	}
	return nil
}

// printResult lists every metric of a run by name with its unit and the
// count of samples behind it.
func printResult(w *os.File, res *runResult) {
	mode := "tracing off"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s  state_fs=%s  attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, mode, res.StateFS, res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	list := func(defs []metricDef, vs valueSet) {
		for _, d := range defs {
			if v, ok := vs[d.Name]; ok {
				fmt.Fprintf(tw, "   %s\t%.6g\t%s\tn=%d\n", d.Name, v.Value, d.Unit, v.Samples)
			}
		}
	}
	list(endToEnd, res.EndToEnd)
	list(perLayer, res.PerLayer)
	tw.Flush()
	if res.TraceFile != "" {
		fmt.Fprintf(w, "   spans written to %s\n", res.TraceFile)
	}
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadLine `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []perLayerLine `json:"per_layer"`
}

type workloadLine struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type perLayerLine struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkJSON() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 20,
		EndToEnd:   endToEnd,
	}
	for _, s := range specs {
		f.Workloads = append(f.Workloads, workloadLine{s.Name, s.Why})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, perLayerLine{d.Name, d.Unit, d.Better})
	}
	return f
}
