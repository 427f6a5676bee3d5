// Package adminapi exposes a running MyRaft process over a small HTTP
// JSON API, standing in for the paper's operational surface: myraftd
// serves it and myraftctl consumes it. The process runtime is always
// multiraft.Runtime — a single-ring deployment is simply shard count 1 —
// so every endpoint is shard-scoped: an optional shard parameter
// (default 0) selects the ring a status inspection, graceful promotion
// (§4.3), membership change (§2.2), binlog maintenance (§A.1), or
// Quorum Fixer remediation (§5.3) applies to. Process-level surfaces —
// fault injection, routed reads/writes, the /runtime rollup, the leader
// balancer, and online shard splits — act on the whole runtime.
package adminapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/multiraft"
	"myraft/internal/opid"
	"myraft/internal/quorumfixer"
	"myraft/internal/raft"
	"myraft/internal/readpath"
	"myraft/internal/wire"
)

// ClusterStatus is the GET /status payload: one shard ring's state,
// situated in its process runtime by Shard/Shards/TableVersion.
type ClusterStatus struct {
	Name    string `json:"name"`
	Shard   uint32 `json:"shard"`
	Shards  int    `json:"shards"`
	Primary string `json:"primary,omitempty"`
	// PurgeFloor is the last cluster-wide purge floor the retention
	// coordinator drove (0 before the first purge).
	PurgeFloor uint64 `json:"purge_floor,omitempty"`
	// TableVersion is the routing-table generation currently serving.
	TableVersion uint64                 `json:"table_version"`
	Members      []cluster.MemberStatus `json:"members"`
}

// RuntimeStatus is the aggregate GET /runtime payload: fleet-level
// counts first, per-shard detail under /shards, per-ring detail under
// /status?shard=N.
type RuntimeStatus struct {
	Name   string `json:"name"`
	Shards int    `json:"shards"`
	// ShardsWithLeader counts shards currently reporting a leader; a
	// healthy runtime has ShardsWithLeader == Shards.
	ShardsWithLeader int           `json:"shards_with_leader"`
	UpNodes          []wire.NodeID `json:"up_nodes"`
	// LeadersByNode maps each node to the shards it currently leads —
	// the balancer's input and the operator's skew-at-a-glance view.
	LeadersByNode map[wire.NodeID][]wire.ShardID `json:"leaders_by_node"`
	// MaxLeadersPerNode and BalanceTarget summarize placement skew:
	// converged means Max ≤ Target+1 (⌈shards/up-nodes⌉).
	MaxLeadersPerNode int `json:"max_leaders_per_node"`
	BalanceTarget     int `json:"balance_target"`
	// TableVersion is the routing table generation currently serving.
	TableVersion uint64 `json:"table_version"`
	// Metrics is the runtime's named-instrument snapshot (shard count,
	// table generation, split/cutover counters).
	Metrics map[string]int64 `json:"metrics"`
}

// Server wraps the process runtime with the admin handlers.
type Server struct {
	rt  *multiraft.Runtime
	cl  *multiraft.Client
	mux *http.ServeMux
}

// NewServer builds the admin handler for a runtime. Ring-scoped
// endpoints take an optional shard parameter defaulting to shard 0, so
// against a single-shard runtime the surface reads exactly like the old
// single-ring API.
func NewServer(rt *multiraft.Runtime) *Server {
	s := &Server{rt: rt, cl: rt.NewClient(0), mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /status", s.handleStatus)
	s.mux.HandleFunc("GET /runtime", s.handleRuntime)
	s.mux.HandleFunc("GET /shards", s.handleShards)
	s.mux.HandleFunc("POST /balance", s.handleBalance)
	s.mux.HandleFunc("POST /split", s.handleSplit)
	s.mux.HandleFunc("POST /promote", s.handlePromote)
	s.mux.HandleFunc("POST /crash", s.handleCrash)
	s.mux.HandleFunc("POST /restart", s.handleRestart)
	s.mux.HandleFunc("POST /partition", s.handlePartition)
	s.mux.HandleFunc("POST /heal", s.handleHeal)
	s.mux.HandleFunc("POST /member/add", s.handleAddMember)
	s.mux.HandleFunc("POST /member/remove", s.handleRemoveMember)
	s.mux.HandleFunc("POST /write", s.handleWrite)
	s.mux.HandleFunc("GET /read", s.handleRead)
	s.mux.HandleFunc("POST /flush-binlogs", s.handleFlush)
	s.mux.HandleFunc("POST /purge", s.handlePurge)
	s.mux.HandleFunc("POST /fix-quorum", s.handleFixQuorum)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /trace", s.handleTrace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.WriteHeader(code)
	writeJSON(w, map[string]string{"error": err.Error()})
}

// shardScope resolves the request's shard parameter (default shard 0)
// to its ring.
func (s *Server) shardScope(r *http.Request) (*cluster.Cluster, wire.ShardID, error) {
	var id wire.ShardID
	if v := r.FormValue("shard"); v != "" {
		n, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("bad shard %q: %w", v, err)
		}
		id = wire.ShardID(n)
	}
	c := s.rt.Shard(id)
	if c == nil {
		return nil, 0, fmt.Errorf("unknown shard %d (runtime hosts %d)", id, s.rt.Shards())
	}
	return c, id, nil
}

func (s *Server) clusterStatus(c *cluster.Cluster, shard wire.ShardID) ClusterStatus {
	st := ClusterStatus{
		Name:         c.Name(),
		Shard:        uint32(shard),
		Shards:       s.rt.Shards(),
		PurgeFloor:   c.PurgeFloor(),
		TableVersion: s.rt.Router().Version(),
	}
	if id, ok := c.Registry().Primary(c.Name()); ok {
		st.Primary = string(id)
	}
	for _, m := range c.Members() {
		st.Members = append(st.Members, m.Status())
	}
	return st
}

// Runtime builds the aggregate process rollup.
func (s *Server) Runtime() RuntimeStatus {
	byNode := s.rt.LeadersByNode()
	up := s.rt.UpNodes()
	st := RuntimeStatus{
		Name:          s.rt.Name(),
		Shards:        s.rt.Shards(),
		UpNodes:       up,
		LeadersByNode: byNode,
		TableVersion:  s.rt.Router().Version(),
		Metrics:       s.rt.Metrics().Snapshot(),
	}
	for _, shards := range byNode {
		st.ShardsWithLeader += len(shards)
		if len(shards) > st.MaxLeadersPerNode {
			st.MaxLeadersPerNode = len(shards)
		}
	}
	if len(up) > 0 {
		st.BalanceTarget = (st.Shards + len(up) - 1) / len(up)
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, shard, err := s.shardScope(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, s.clusterStatus(c, shard))
}

func (s *Server) handleRuntime(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Runtime())
}

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.rt.ShardStatuses())
}

func (s *Server) handleBalance(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 60*time.Second)
	defer cancel()
	moves := s.rt.BalanceOnce(ctx)
	writeJSON(w, map[string]int{"moves": moves})
}

// handleSplit carves the scoped shard's hash range in two online:
// bootstrap a new ring, fence + drain the moved subrange, copy its rows,
// cut the routing table over, clean up the source (multiraft.Split).
func (s *Server) handleSplit(w http.ResponseWriter, r *http.Request) {
	_, shard, err := s.shardScope(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 120*time.Second)
	defer cancel()
	report, err := s.rt.Split(ctx, shard)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, report)
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	c, _, err := s.shardScope(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	target := wire.NodeID(r.FormValue("target"))
	if target == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("target required"))
		return
	}
	if err := c.TransferLeadership(target); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
	defer cancel()
	if err := c.WaitForPrimary(ctx, target); err != nil {
		writeErr(w, http.StatusGatewayTimeout, err)
		return
	}
	writeJSON(w, map[string]string{"primary": string(target)})
}

// handleCrash and handleRestart are process-level: one node death takes
// all its co-located rings down together, and a restart rejoins them all.
func (s *Server) handleCrash(w http.ResponseWriter, r *http.Request) {
	if err := s.rt.Crash(wire.NodeID(r.FormValue("id"))); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

func (s *Server) handleRestart(w http.ResponseWriter, r *http.Request) {
	if err := s.rt.Restart(wire.NodeID(r.FormValue("id"))); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

// handlePartition and handleHeal act on the shared network every shard
// rides: a partition severs the node pair for all rings at once.
func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	a, b := wire.NodeID(r.FormValue("a")), wire.NodeID(r.FormValue("b"))
	if a == "" || b == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("a and b required"))
		return
	}
	s.rt.Net().Partition(a, b)
	writeJSON(w, map[string]bool{"ok": true})
}

func (s *Server) handleHeal(w http.ResponseWriter, r *http.Request) {
	s.rt.Net().HealAll()
	writeJSON(w, map[string]bool{"ok": true})
}

func leaderNode(c *cluster.Cluster) (*raft.Node, error) {
	m := c.Leader()
	if m == nil || m.Node() == nil {
		return nil, fmt.Errorf("no leader")
	}
	return m.Node(), nil
}

func (s *Server) handleAddMember(w http.ResponseWriter, r *http.Request) {
	c, _, err := s.shardScope(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	node, err := leaderNode(c)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	voter, _ := strconv.ParseBool(r.FormValue("voter"))
	witness := r.FormValue("kind") == "logtailer"
	m := wire.Member{
		ID:      wire.NodeID(r.FormValue("id")),
		Region:  wire.Region(r.FormValue("region")),
		Voter:   voter || witness,
		Witness: witness,
	}
	if m.ID == "" || m.Region == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("id and region required"))
		return
	}
	op, err := node.AddMember(m)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	waitAndReply(w, r, node, op)
}

func (s *Server) handleRemoveMember(w http.ResponseWriter, r *http.Request) {
	c, _, err := s.shardScope(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	node, err := leaderNode(c)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	op, err := node.RemoveMember(wire.NodeID(r.FormValue("id")))
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	waitAndReply(w, r, node, op)
}

func waitAndReply(w http.ResponseWriter, r *http.Request, node *raft.Node, op opid.OpID) {
	ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
	defer cancel()
	if err := node.WaitCommitted(ctx, op.Index); err != nil {
		writeErr(w, http.StatusGatewayTimeout, err)
		return
	}
	writeJSON(w, map[string]string{"opid": op.String()})
}

// handleWrite routes the key through the runtime's table to its owning
// shard; the response names the shard that served it.
func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	key, value := r.FormValue("key"), r.FormValue("value")
	if key == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("key required"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
	defer cancel()
	res, err := s.cl.Write(ctx, key, []byte(value))
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, map[string]string{
		"shard":   fmt.Sprint(s.rt.Router().ShardFor(key)),
		"opid":    res.OpID.String(),
		"latency": res.Latency.String(),
	})
}

// handleRead serves /read?key=K[&level=L], routed to the key's owning
// shard. level selects the consistency level of internal/readpath:
// "linearizable" (ReadIndex), "lease" (leader-local under the read
// lease), or "session" (read-your-writes at the member named by &at=ID,
// gated on &token=term.index). The default, "local", is the legacy
// primary-local read with no guarantee.
func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
	defer cancel()
	key := r.FormValue("key")
	shard := s.rt.Router().ShardFor(key)

	var res readpath.Result
	var err error
	switch level := r.FormValue("level"); level {
	case "", "local":
		v, ok, rerr := s.cl.Read(ctx, key)
		if rerr != nil {
			writeErr(w, http.StatusServiceUnavailable, rerr)
			return
		}
		writeJSON(w, map[string]any{"shard": shard, "found": ok, "value": string(v), "level": "local"})
		return
	case "linearizable":
		res, err = s.cl.ReadLinearizable(ctx, key)
	case "lease":
		res, err = s.cl.ReadLease(ctx, key)
	case "session":
		at := wire.NodeID(r.FormValue("at"))
		if at == "" {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("session reads require at=<member>"))
			return
		}
		var tok readpath.Token
		if t := r.FormValue("token"); t != "" {
			if tok, err = readpath.ParseToken(t); err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
		}
		res, err = s.rt.Shard(shard).ReadAtSession(ctx, at, tok, key)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown read level %q", level))
		return
	}
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, map[string]any{
		"shard":     shard,
		"found":     res.Found,
		"value":     string(res.Value),
		"level":     res.Level.String(),
		"index":     res.Index,
		"fell_back": res.FellBack,
	})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	c, _, err := s.shardScope(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	m := c.Leader()
	if m == nil || m.Server() == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("no primary"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
	defer cancel()
	if err := m.Server().FlushBinaryLogs(ctx); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

// handlePurge runs one round of the scoped shard's purge coordinator
// with the given retention budget (entries kept below the tail, default
// 1024): the operator-driven face of PURGE BINARY LOGS. The response
// reports the floor driven this round (0 when nothing was purgeable) and
// the ring floor after it.
func (s *Server) handlePurge(w http.ResponseWriter, r *http.Request) {
	c, _, err := s.shardScope(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	retain := uint64(1024)
	if v := r.FormValue("retain"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad retain: %w", err))
			return
		}
		retain = n
	}
	floor, err := c.PurgeOnce(retain)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, map[string]uint64{"purged_to": floor, "purge_floor": c.PurgeFloor()})
}

func (s *Server) handleFixQuorum(w http.ResponseWriter, r *http.Request) {
	c, _, err := s.shardScope(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	allowLoss, _ := strconv.ParseBool(r.FormValue("allow_data_loss"))
	report, err := quorumfixer.Fix(r.Context(), c, quorumfixer.Options{AllowDataLoss: allowLoss})
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, map[string]string{"chosen": string(report.Chosen), "opid": report.ChosenOpID.String()})
}
