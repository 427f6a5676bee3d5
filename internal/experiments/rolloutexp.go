package experiments

import (
	"context"
	"fmt"
	"os"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/rollout"
	"myraft/internal/workload"
)

// RolloutResult reports the §5.2 enable-raft measurement: the
// write-unavailability window of a live semi-sync → MyRaft migration
// ("usually a few seconds" in the paper).
type RolloutResult struct {
	Window        time.Duration
	WritesBefore  int
	WritesAfter   int
	DataPreserved bool
	Params        Params
}

func (r *RolloutResult) String() string {
	return fmt.Sprintf(
		"enable-raft window=%v (paper units %v); writes before=%d after=%d; data preserved=%v",
		r.Window.Round(time.Millisecond),
		r.Params.unscaled(r.Window).Round(time.Millisecond),
		r.WritesBefore, r.WritesAfter, r.DataPreserved)
}

// Rollout migrates a live baseline replicaset to MyRaft under client
// load and measures the unavailability window.
func Rollout(ctx context.Context, p Params) (*RolloutResult, error) {
	p = p.withDefaults()
	dir, err := os.MkdirTemp("", "myraft-rollout-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rs, ctrl, err := baselineStack(ctx, p, dir)
	if err != nil {
		return nil, err
	}
	ctrl.Stop() // the migration holds the control plane still

	// Pre-migration traffic.
	pre := workload.Run(ctx, baselineDriver(rs, 0), workload.Config{
		Clients:      p.Clients,
		Duration:     p.Duration / 2,
		RetryOnError: true,
	})
	probeKey := "rollout-probe"
	client := rs.NewClient(0)
	if _, _, err := client.Write(ctx, probeKey, []byte("pre-migration")); err != nil {
		rs.Close()
		return nil, err
	}

	res, err := rollout.EnableRaft(ctx, rs, rollout.Options{
		Dir: dir,
		Raft: cluster.Options{
			Raft: p.raftConfig(),
		},
	})
	if err != nil {
		rs.Close()
		return nil, fmt.Errorf("experiments: enable-raft: %w", err)
	}
	defer res.Cluster.Close()

	// Post-migration traffic plus the data-preservation check.
	post := workload.Run(ctx, clusterDriver(res.Cluster, 0), workload.Config{
		Clients:      p.Clients,
		Duration:     p.Duration / 2,
		RetryOnError: true,
	})
	_, verr := rollout.VerifyMigration(ctx, res.Cluster, probeKey, []byte("pre-migration"))

	return &RolloutResult{
		Window:        res.Window,
		WritesBefore:  pre.Latency.Count(),
		WritesAfter:   post.Latency.Count(),
		DataPreserved: verr == nil,
		Params:        p,
	}, nil
}
