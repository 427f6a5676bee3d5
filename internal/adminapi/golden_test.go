package adminapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/metrics"
	"myraft/internal/multiraft"
	"myraft/internal/transport"
)

// fillValue sets every field reachable from v to a distinct non-zero
// value (pointers allocated, slices and maps given one element), so
// marshalling the result shows every key the type can emit, omitempty or
// not. Interfaces (an error) stay nil.
func fillValue(v reflect.Value, n *int) {
	*n++
	switch {
	case v.Type() == reflect.TypeOf(time.Time{}):
		v.Set(reflect.ValueOf(time.Unix(int64(*n), 0).UTC()))
	case v.Kind() == reflect.Bool:
		v.SetBool(true)
	case v.CanInt():
		v.SetInt(int64(*n))
	case v.CanUint():
		v.SetUint(uint64(*n))
	case v.Kind() == reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case v.Kind() == reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case v.Kind() == reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(v.Elem(), n)
	case v.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillValue(v.Index(0), n)
	case v.Kind() == reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillValue(k, n)
		fillValue(e, n)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(v.Field(i), n)
		}
	case v.Kind() == reflect.Interface:
	default:
		panic("fillValue: unhandled kind " + v.Kind().String())
	}
}

// The two goldens were captured from the commit before the status blocks
// moved onto mysql.PipelineStatus, mysql.ApplyStatus and
// raft.SnapshotStats; only the durability block has changed since, when
// it became raft.DurabilityStats. The wire format of GET /status is
// whatever these strings say, key names, order and omitempty behaviour
// included (the values are fillValue's numbering, rendered by each
// field's own type).
const (
	goldenFullMember = `{"id":"s2","region":"s3","kind":"s4","down":true,"role":"unknown","term":10,"leader":"s11","commit_index":12,"last_opid":"14.15","first_index":16,"snapshot_anchor":"18.19","lease_held":true,"lease_expiry":"1970-01-01T00:00:36Z","read_only":true,"gtid_executed":"s39","binlog_files":[{"name":"s42","size":45}],"binlog_bytes":46,"snapshots":{"installs":56,"chunks_sent":57,"bytes_sent":58,"failures":59},"durability":{"durable_index":62,"appended_index":63,"unsynced_bytes":64,"fsyncs":65,"fsync_batch":{"count":67,"min":68,"p50":69,"p95":70,"p99":71,"max":72,"mean":73},"append_durable":{"count":75,"min_ns":76,"p50_ns":77,"p95_ns":78,"p99_ns":79,"max_ns":80,"mean_ns":81},"loop_blocked_ns":82},"apply":{"running":true,"workers":87,"position":88,"commit_index":89,"lag":90,"busy_workers":91,"applied_txns":92,"tracked_txns":93,"conflict_fallbacks":94,"fallback_rate":95.5,"parallel_batches":96,"serial_batches":97,"last_error":"s98"},"pipeline":{"depth":101,"in_flight":102,"queue_len":103,"groups_proposed":104,"txns_committed":105,"txns_aborted":106,"group_size_mean":107,"group_size_p95":108,"group_size_max":109,"flush_busy_ns":110,"quorum_busy_ns":111,"engine_busy_ns":112,"syncs_coalesced":113,"engine_syncs":114,"engine_noop_syncs":115}}`
	goldenZeroBlocks = `{"id":"","region":"","kind":"","down":false,"snapshots":{},"durability":{"durable_index":0,"appended_index":0,"unsynced_bytes":0,"fsyncs":0},"apply":{"running":false,"workers":0,"position":0,"commit_index":0,"lag":0},"pipeline":{"depth":0,"in_flight":0}}`
)

// keyPaths lists every object key in a decoded JSON value as a dotted
// path (array elements share their parent's path).
func keyPaths(v any, prefix string, out map[string]bool) {
	switch t := v.(type) {
	case map[string]any:
		for k, e := range t {
			p := strings.TrimPrefix(prefix+"."+k, ".")
			out[p] = true
			keyPaths(e, p, out)
		}
	case []any:
		for _, e := range t {
			keyPaths(e, prefix, out)
		}
	}
}

func TestStatusWireFormat(t *testing.T) {
	var full cluster.MemberStatus
	n := 0
	fillValue(reflect.ValueOf(&full).Elem(), &n)
	got, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenFullMember {
		t.Errorf("fully populated member status changed on the wire:\n got %s\nwant %s", got, goldenFullMember)
	}

	// Zero-valued blocks: which keys survive omitempty is wire format too.
	var zero cluster.MemberStatus
	for _, name := range []string{"Snapshots", "Durability", "Apply", "Pipeline"} {
		f := reflect.ValueOf(&zero).Elem().FieldByName(name)
		f.Set(reflect.New(f.Type().Elem()))
	}
	got, err = json.Marshal(zero)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenZeroBlocks {
		t.Errorf("zero-valued status blocks changed on the wire:\n got %s\nwant %s", got, goldenZeroBlocks)
	}
}

// A live 1-shard runtime's GET /status may only use member keys the
// golden knows, and must carry every key the golden says is always
// present.
func TestLiveStatusKeysMatchGolden(t *testing.T) {
	rt, client := testStack(t)
	for i := 0; i < 8; i++ {
		if _, err := client.Write(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewServer(rt))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var live struct {
		Members []any `json:"members"`
	}
	if err := json.Unmarshal(body, &live); err != nil {
		t.Fatal(err)
	}
	liveKeys := make(map[string]bool)
	keyPaths(live.Members, "", liveKeys)

	paths := func(golden string) map[string]bool {
		var v any
		if err := json.Unmarshal([]byte(golden), &v); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]bool)
		keyPaths(v, "", out)
		return out
	}
	known, always := paths(goldenFullMember), paths(goldenZeroBlocks)
	var unknown, missing []string
	for k := range liveKeys {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	for k := range always {
		// "snapshots" is itself omitempty on the member; a ring that never
		// transferred one does not report it.
		if !liveKeys[k] && k != "snapshots" {
			missing = append(missing, k)
		}
	}
	sort.Strings(unknown)
	sort.Strings(missing)
	if len(unknown) > 0 || len(missing) > 0 {
		t.Fatalf("live /status keys drifted from the golden: unknown %v, missing %v", unknown, missing)
	}
}

// Every gauge a member's or node's status publishes is declared by
// exactly one `metric` tag, on the field that carries its value.
func TestEachSignalDeclaredOnce(t *testing.T) {
	var (
		ms cluster.MemberStatus
		ds transport.DemuxStats
		sg multiraft.SyncGroupStats
		n  int
	)
	for _, v := range []any{&ms, &ds, &sg} {
		fillValue(reflect.ValueOf(v).Elem(), &n)
	}
	d, b, a, p := ms.Durability, ms.Binlog, ms.Apply, ms.Pipeline
	want := map[string]int64{
		"raft_term":                     int64(ms.Term),
		"raft_commit_index":             int64(ms.CommitIndex),
		"raft_first_index":              int64(ms.FirstIndex),
		"raft_durable_index":            int64(d.DurableIndex),
		"raft_appended_index":           int64(d.AppendedIndex),
		"raft_unsynced_bytes":           d.UnsyncedBytes,
		"raft_fsyncs":                   d.Fsyncs,
		"raft_loop_blocked_ns":          int64(d.LoopBlocked),
		"binlog_appends":                b.Appends,
		"binlog_append_bytes":           b.AppendBytes,
		"binlog_syncs":                  b.Syncs,
		"binlog_noop_syncs":             b.NoopSyncs,
		"apply_running":                 1,
		"apply_workers":                 int64(a.Workers),
		"apply_busy_workers":            int64(a.BusyWorkers),
		"apply_position":                int64(a.Position),
		"apply_lag":                     int64(a.Lag),
		"apply_txns":                    a.AppliedTxns,
		"apply_conflict_fallbacks":      a.ConflictFallbacks,
		"apply_parallel_batches":        a.ParallelBatches,
		"pipeline_depth":                int64(p.Depth),
		"pipeline_inflight_groups":      int64(p.InFlight),
		"pipeline_queue_len":            int64(p.QueueLen),
		"pipeline_groups_proposed":      p.GroupsProposed,
		"pipeline_txns_committed":       p.TxnsCommitted,
		"pipeline_txns_aborted":         p.TxnsAborted,
		"pipeline_group_size_mean":      p.GroupSizeMean,
		"pipeline_group_size_p95":       p.GroupSizeP95,
		"pipeline_group_size_max":       p.GroupSizeMax,
		"pipeline_flush_busy_ns":        p.FlushBusyNs,
		"pipeline_quorum_busy_ns":       p.QuorumBusyNs,
		"pipeline_engine_busy_ns":       p.EngineBusyNs,
		"pipeline_syncs_coalesced":      p.SyncsCoalesced,
		"engine_syncs":                  p.EngineSyncs,
		"engine_noop_syncs":             p.EngineNoopSyncs,
		"multiraft_hb_coalesced_items":  ds.CoalescedItems,
		"multiraft_shard_unknown_drops": ds.UnknownShardDrops,
		"multiraft_fsync_requests":      sg.Requests,
		"multiraft_fsync_physical":      sg.Syncs,
	}
	got := make(map[string][]int64)
	for _, v := range []any{ms, ds, sg} {
		metrics.Walk(v, func(name string, val int64) { got[name] = append(got[name], val) })
	}
	for name, w := range want {
		if g := got[name]; len(g) != 1 || g[0] != w {
			t.Errorf("%s: walked values %v, want exactly one %d", name, g, w)
		}
	}
	for name, g := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: undeclared gauge walked (values %v)", name, g)
		}
	}
}
