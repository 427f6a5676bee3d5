package adminapi

// observability.go is the scrape-and-drill-down surface: GET /metrics
// renders the whole process in one exposition — the runtime-scope
// registry (shard count, table generation, split counters), each node's
// shared-resource registry (coalescing, demux drops, fsync counters)
// labeled with the node, and every (shard, member) registry's
// write-path stage histograms and raft/binlog/applier gauges labeled
// with both dimensions. GET /trace returns the per-(shard, member)
// stage summaries (metrics.Summary as it is) and slow-op journals as
// JSON for myraftctl top, and
// EnablePprof mounts the runtime profiler behind an explicit opt-in.

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"myraft/internal/metrics"
	"myraft/internal/trace"
)

// TraceSlowOp is one journaled slow operation with its per-stage
// breakdown (stages the operation never reached are absent).
type TraceSlowOp struct {
	Op      string                   `json:"op,omitempty"`
	Role    string                   `json:"role"`
	TotalNS time.Duration            `json:"total_ns"`
	At      time.Time                `json:"at"`
	Stages  map[string]time.Duration `json:"stages_ns"`
}

// MemberTrace is one (shard, member) view in the GET /trace payload.
type MemberTrace struct {
	ID      string                     `json:"id"`
	Shard   string                     `json:"shard,omitempty"`
	Stages  map[string]metrics.Summary `json:"stages"`
	SlowOps []TraceSlowOp              `json:"slow_ops,omitempty"`
}

// TraceStatus is the GET /trace payload.
type TraceStatus struct {
	Members []MemberTrace `json:"members"`
}

func traceSlowOps(j *trace.Journal) []TraceSlowOp {
	if j == nil {
		return nil
	}
	ops := j.Top()
	out := make([]TraceSlowOp, 0, len(ops))
	for _, op := range ops {
		out = append(out, TraceSlowOp{
			Op:      op.Op,
			Role:    op.Role,
			TotalNS: op.Total,
			At:      op.At,
			Stages:  op.StageBreakdown(),
		})
	}
	return out
}

// handleMetrics renders one exposition for the whole process: the
// runtime registry under scope="runtime", each node's shared-resource
// registry under node="<id>", and every up member's registry, with its
// status just published into it, under shard="<s>",member="<id>".
// Families stay properly named — the dimensions live in labels, never in
// metric names.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	groups := []metrics.LabeledRegistry{{
		Labels: map[string]string{"scope": "runtime"},
		Reg:    s.rt.Metrics(),
	}}
	for _, nr := range s.rt.NodeRegistries() {
		groups = append(groups, metrics.LabeledRegistry{
			Labels: map[string]string{"node": string(nr.ID)},
			Reg:    nr.Reg,
		})
	}
	for _, mr := range s.rt.MemberRegistries() {
		groups = append(groups, metrics.LabeledRegistry{
			Labels: map[string]string{"shard": strconv.FormatUint(uint64(mr.Shard), 10), "member": string(mr.ID)},
			Reg:    mr.Reg,
		})
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	metrics.WritePrometheus(w, groups...)
}

// handleTrace returns stage summaries and slow ops for every (shard,
// member) pair hosting a tracer.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	var st TraceStatus
	for _, mr := range s.rt.MemberRegistries() {
		if mr.Tracer == nil {
			continue
		}
		stages := make(map[string]metrics.Summary)
		for s, sum := range mr.Tracer.StageSummaries() {
			stages[s.String()] = sum
		}
		st.Members = append(st.Members, MemberTrace{
			ID:      string(mr.ID),
			Shard:   strconv.FormatUint(uint64(mr.Shard), 10),
			Stages:  stages,
			SlowOps: traceSlowOps(mr.Tracer.Journal()),
		})
	}
	writeJSON(w, st)
}

// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
// default: profiling endpoints leak memory contents and cost CPU, so
// exposure is an explicit operator decision (myraftd -pprof).
func (s *Server) EnablePprof() {
	mountPprof(s.mux)
}

func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
