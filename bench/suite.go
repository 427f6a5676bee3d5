package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// resultFile is one point of the checked-in benchmark trajectory
// (results/BENCH_<pr>.json) and the input of -compare.
type resultFile struct {
	Host      hostBlock                 `json:"host"`
	Runs      int                       `json:"runs"`
	MeasuredS float64                   `json:"measured_seconds_per_run"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// hostBlock records the shape of the machine the numbers came from.
type hostBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	StateFS    string `json:"state_fs"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
}

// workloadResult holds, per metric, the median over the runs and the
// spread between the quartiles as a share of that median.
type workloadResult struct {
	Modeled   modeled               `json:"modeled"`
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	EndToEnd  map[string]fileMetric `json:"end_to_end"`
	PerLayer  map[string]fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Spread  float64 `json:"spread"`
}

// suite runs every workload, untraced then traced, runs times each on
// consecutive seeds, prints every metric and writes the result file.
func suite(ctx context.Context, cfg runConfig, runs int, out string) error {
	file := resultFile{
		Host: hostBlock{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GitCommit: gitCommit(), Seed: cfg.Seed,
		},
		Runs: runs, MeasuredS: cfg.Measure.Seconds(),
		Workloads: make(map[string]workloadResult),
	}
	correct := true
	for _, s := range specs {
		wr := workloadResult{Modeled: s.modeled(), Correct: true}
		var e2e, layer []valueSet
		for r := 0; r < runs; r++ {
			for _, traced := range []bool{false, true} {
				c := cfg
				c.Workload, c.Seed, c.Traced = s.Name, cfg.Seed+int64(r), traced
				res, err := runWorkload(ctx, c)
				if err != nil {
					return err
				}
				printResult(os.Stdout, res)
				file.Host.StateFS = res.StateFS
				wr.Correct = wr.Correct && res.Correct
				if traced {
					layer = append(layer, res.PerLayer)
				} else {
					// The end-to-end numbers and the op counts come from
					// the untraced runs only.
					e2e = append(e2e, res.EndToEnd)
					wr.Attempted += res.Attempted
					wr.Failed += res.Failed
				}
			}
		}
		wr.EndToEnd, wr.PerLayer = summarize(e2e), summarize(layer)
		file.Workloads[s.Name] = wr
		correct = correct && wr.Correct
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("correctness gate failed")
	}
	return nil
}

// summarize folds the runs of one workload into medians and spreads.
func summarize(runs []valueSet) map[string]fileMetric {
	out := make(map[string]fileMetric)
	if len(runs) == 0 {
		return out
	}
	for name, first := range runs[0] {
		vals := make([]float64, len(runs))
		samples := 0
		for i, r := range runs {
			vals[i] = r[name].Value
			samples += r[name].Samples
		}
		out[name] = fileMetric{Value: median(vals), Unit: first.Unit, Samples: samples, Spread: spread(vals)}
	}
	return out
}

// spread is the distance between the first and third quartile as a share
// of the median (0 for fewer than four values, which have no quartiles
// worth the name).
func spread(vals []float64) float64 {
	if len(vals) < 4 {
		return 0
	}
	s := sortedCopy(vals)
	return ratio(quantile(s, 75)-quantile(s, 25), quantile(s, 50))
}

// gitCommit names the commit the numbers belong to, when the working
// directory is a git checkout.
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
