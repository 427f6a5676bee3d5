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
)

// fillValue sets every field reachable from v to a distinct non-zero
// value (pointers allocated, slices given one element), so marshalling
// the result shows every key the type can emit, omitempty or not.
func fillValue(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillValue(v.Index(0), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(v.Field(i), n)
		}
	default:
		panic("fillValue: unhandled kind " + v.Kind().String())
	}
}

// The two goldens were captured from the commit before the status blocks
// moved onto mysql.PipelineStatus, mysql.ApplyStatus and
// raft.SnapshotStats: the wire format of GET /status is whatever these
// strings say, key names, order and omitempty behaviour included.
const (
	goldenFullMember = `{"id":"s2","region":"s3","kind":"s4","down":true,"role":"s6","term":7,"leader":"s8","commit_index":9,"last_opid":"s10","first_index":11,"snapshot_anchor":"s12","lease_held":true,"lease_expiry":"s14","read_only":true,"gtid_executed":"s17","binlog_files":[{"name":"s20","size":21}],"binlog_bytes":22,"snapshots":{"installs":25,"chunks_sent":26,"bytes_sent":27,"failures":28},"durability":{"durable_index":31,"appended_index":32,"unsynced_bytes":33,"fsyncs":34,"fsync_batch_p50":35,"fsync_batch_p99":36,"fsync_batch_max":37,"append_durable_p50":"s38","append_durable_p99":"s39","loop_blocked":"s40"},"apply":{"running":true,"workers":44,"position":45,"commit_index":46,"lag":47,"busy_workers":48,"applied_txns":49,"tracked_txns":50,"conflict_fallbacks":51,"fallback_rate":52.5,"parallel_batches":53,"serial_batches":54,"last_error":"s55"},"pipeline":{"depth":58,"in_flight":59,"queue_len":60,"groups_proposed":61,"txns_committed":62,"txns_aborted":63,"group_size_mean":64,"group_size_p95":65,"group_size_max":66,"flush_busy_ns":67,"quorum_busy_ns":68,"engine_busy_ns":69,"syncs_coalesced":70,"engine_syncs":71,"engine_noop_syncs":72}}`
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
	var full MemberStatus
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
	var zero MemberStatus
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
