package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"myraft/bench/layers"
	"myraft/internal/multiraft"
)

// runConfig selects one run: a workload, its seed, how long to measure
// and whether the run is the traced one.
type runConfig struct {
	Workload string
	Seed     int64
	Measure  time.Duration
	Traced   bool
	// Smoke marks a run too short to support a p99; it skips the
	// sample-count rule and shrinks the layer loops.
	Smoke bool
	// StateDir overrides where runtimes keep their files.
	StateDir string
	// ResultsDir is where the traced run writes its span file.
	ResultsDir string
}

// warmup is the discarded time before the measured phase.
func (c runConfig) warmup() time.Duration {
	if c.Smoke {
		return 200 * time.Millisecond
	}
	return warmup
}

// setups is how many times the run sets its workload up.
func (c runConfig) setups() int {
	if c.Smoke {
		return 2
	}
	return 5
}

// runResult is what one run reports.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	StateFS   string   `json:"state_fs"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	EndToEnd  valueSet `json:"end_to_end"`
	PerLayer  valueSet `json:"per_layer,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
}

// tailPercentile is the tail the end-to-end write latency reports, per
// window. The windowed p95 repeats within a few percent from run to run
// on the reference host where the p99 does not.
const tailPercentile = 95

// runWorkload sets the workload up, drives it for the measured time,
// passes it through the correctness gate and computes its metrics. A
// traced run also times the layers from outside and writes the span file.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	s, err := specByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	root, err := stateRoot(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	res := &runResult{Workload: s.Name, Seed: cfg.Seed, Traced: cfg.Traced, StateFS: fsName(root)}

	var spans *spanLog
	if cfg.Traced {
		spans = newSpanLog()
	}
	rt, setupS, err := setUp(ctx, s, root, cfg.Seed, cfg.Traced, cfg.setups())
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", s.Name, err)
	}
	closeRuntime := sync.OnceFunc(rt.Close)
	defer closeRuntime()

	ks := newKeyState()
	var e2e, layer valueSet
	if s.Failover {
		e2e, layer = driveFailover(ctx, rt, ks, cfg, spans, res)
	} else {
		e2e, layer = driveSteady(ctx, s, rt, ks, cfg, spans, res)
	}
	e2e.set("setup_s", setupS, cfg.setups())
	res.Problems = append(res.Problems, checkRuntime(ctx, rt, ks)...)
	res.Correct = len(res.Problems) == 0
	if n := e2e["write_p95_us"].Samples; !cfg.Smoke && highestPercentile(n) < tailPercentile {
		return nil, fmt.Errorf("%s: a window of %d write samples cannot support a p%d (ten samples must lie beyond it)", s.Name, n, tailPercentile)
	}

	group := int(layer["mysql.pipeline_group_size_mean"].Value + 0.5)
	closeRuntime() // the layer loops are timed with nothing else running
	if cfg.Traced {
		if err := timeLayers(root, group, cfg.Smoke, spans, layer); err != nil {
			return nil, err
		}
		if res.TraceFile, err = spans.write(cfg.ResultsDir, s.Name); err != nil {
			return nil, err
		}
		res.PerLayer = layer.shaped(perLayer)
	}
	res.EndToEnd = e2e.shaped(endToEnd)
	return res, nil
}

func driveSteady(ctx context.Context, s spec, rt *multiraft.Runtime, ks *keyState, cfg runConfig, spans *spanLog, res *runResult) (e2e, layer valueSet) {
	o := runSteady(ctx, s, rt, ks, cfg.Seed, cfg.warmup(), cfg.Measure, spans)
	res.Attempted, res.Failed = o.attempted, o.failed
	if o.wrongReads > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d reads returned a value their level does not allow", o.wrongReads))
	}
	return steadyMetrics(s, rt, o)
}

func driveFailover(ctx context.Context, rt *multiraft.Runtime, ks *keyState, cfg runConfig, spans *spanLog, res *runResult) (e2e, layer valueSet) {
	o := runFailover(ctx, rt, ks, cfg.Seed, cfg.warmup(), cfg.Measure, spans)
	res.Attempted, res.Failed = o.issued, int64(o.unacked)
	res.Problems = append(res.Problems, o.problems...)
	if o.unacked > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d probes were never acknowledged", o.unacked))
	}
	return failoverMetrics(o)
}

// timeLayers runs the bench/layers drivers and adds their numbers.
func timeLayers(root string, group int, smoke bool, spans *spanLog, layer valueSet) error {
	scale := 1.0
	if smoke {
		scale = 0.02
	}
	got, err := layers.Run(layers.Config{
		Dir: filepath.Join(root, "layers"), ValueSize: valueSize, Group: group, Scale: scale,
		Span: func(l, name string, start, end time.Time) { spans.record(0, l, name, start, end) },
	})
	if err != nil {
		return err
	}
	for name, v := range got {
		layer.set(name, v.Value, v.N)
	}
	return nil
}
