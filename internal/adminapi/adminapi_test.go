package adminapi

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/multiraft"
	"myraft/internal/quorum"
	"myraft/internal/raft"
	"myraft/internal/transport"
)

// testStack boots a single-shard runtime — the paper topology as one
// ring — with its admin server and an HTTP client pointed at it. The
// pre-unification single-ring tests below run against it unchanged in
// behavior: with one shard, the default shard scope covers everything.
func testStack(t *testing.T) (*multiraft.Runtime, *Client) {
	t.Helper()
	rt, err := multiraft.New(multiraft.Options{
		Shards: 1,
		Specs:  cluster.PaperTopology(1, 0),
		Name:   "rs-admin",
		Dir:    t.TempDir(),
		Raft: raft.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			Strategy:          quorum.SingleRegionDynamic{},
		},
		NetConfig: transport.Config{
			IntraRegion: 200 * time.Microsecond,
			CrossRegion: 2 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Bootstrap elects the first MySQL voter (mysql-0) on the lone shard.
	if err := rt.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(rt))
	t.Cleanup(srv.Close)
	return rt, NewClient(srv.URL)
}

func TestStatusEndpoint(t *testing.T) {
	_, client := testStack(t)
	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Primary != "mysql-0" {
		t.Fatalf("primary = %q", st.Primary)
	}
	if len(st.Members) != 6 {
		t.Fatalf("members = %d", len(st.Members))
	}
	var sawLeader, sawLogtailer bool
	for _, m := range st.Members {
		if m.Role == raft.RoleLeader {
			sawLeader = true
			if m.ReadOnly == nil || *m.ReadOnly {
				t.Fatalf("leader read-only: %+v", m)
			}
			if len(m.BinlogFiles) == 0 || m.GTIDs == "" && m.LastOpID.IsZero() {
				t.Fatalf("leader missing log info: %+v", m)
			}
		}
		if m.Kind == "logtailer" {
			sawLogtailer = true
		}
	}
	if !sawLeader || !sawLogtailer {
		t.Fatalf("roles missing: leader=%v logtailer=%v", sawLeader, sawLogtailer)
	}
}

func TestWriteAndRead(t *testing.T) {
	_, client := testStack(t)
	op, err := client.Write("user:1", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if op == "" {
		t.Fatal("no opid")
	}
	v, found, err := client.Read("user:1")
	if err != nil || !found || v != "alice" {
		t.Fatalf("read = %q %v %v", v, found, err)
	}
	_, found, err = client.Read("missing")
	if err != nil || found {
		t.Fatalf("missing key: found=%v err=%v", found, err)
	}
}

func TestLeveledReadEndpoint(t *testing.T) {
	_, client := testStack(t)
	op, err := client.Write("user:1", "alice")
	if err != nil {
		t.Fatal(err)
	}

	lin, err := client.ReadAt("user:1", "linearizable", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !lin.Found || lin.Value != "alice" || lin.Level != "linearizable" {
		t.Fatalf("linearizable read = %+v", lin)
	}
	le, err := client.ReadAt("user:1", "lease", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if !le.Found || le.Value != "alice" || le.Level != "lease" {
		t.Fatalf("lease read = %+v", le)
	}
	se, err := client.ReadAt("user:1", "session", "mysql-1", op)
	if err != nil {
		t.Fatal(err)
	}
	if !se.Found || se.Value != "alice" || se.Level != "session" {
		t.Fatalf("session read = %+v", se)
	}

	if _, err := client.ReadAt("user:1", "session", "", ""); err == nil {
		t.Fatal("session read without at= accepted")
	}
	if _, err := client.ReadAt("user:1", "session", "mysql-1", "garbage"); err == nil {
		t.Fatal("malformed token accepted")
	}
	if _, err := client.ReadAt("user:1", "psychic", "", ""); err == nil {
		t.Fatal("unknown level accepted")
	}

	// The leader's lease shows up in /status once held.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := client.Status()
		if err != nil {
			t.Fatal(err)
		}
		var held bool
		for _, m := range st.Members {
			if m.Role == raft.RoleLeader && m.LeaseHeld && !m.LeaseExpiry.IsZero() {
				held = true
			}
		}
		if held {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never reported a held lease in /status")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWriteRequiresKey(t *testing.T) {
	_, client := testStack(t)
	if _, err := client.Write("", "x"); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestPromoteEndpoint(t *testing.T) {
	rt, client := testStack(t)
	ring := rt.Shard(0)
	if err := client.Promote("mysql-1"); err != nil {
		t.Fatal(err)
	}
	if id, _ := ring.Registry().Primary(ring.Name()); id != "mysql-1" {
		t.Fatalf("primary = %s", id)
	}
	if err := client.Promote("ghost"); err == nil {
		t.Fatal("promote to unknown member succeeded")
	}
}

func TestCrashRestartEndpoints(t *testing.T) {
	rt, client := testStack(t)
	if err := client.Crash("mysql-0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := rt.Shard(0).AnyPrimary(ctx); err != nil {
		t.Fatal(err)
	}
	if err := client.Restart("mysql-0"); err != nil {
		t.Fatal(err)
	}
	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range st.Members {
		if m.ID == "mysql-0" && m.Down {
			t.Fatal("mysql-0 still down after restart")
		}
	}
	if err := client.Crash("ghost"); err == nil {
		t.Fatal("crash of unknown member succeeded")
	}
}

func TestMembershipEndpoints(t *testing.T) {
	_, client := testStack(t)
	if err := client.AddMember("learner-9", "region-0", "mysql", false); err != nil {
		t.Fatal(err)
	}
	st, _ := client.Status()
	_ = st
	if err := client.RemoveMember("learner-9"); err != nil {
		t.Fatal(err)
	}
	if err := client.AddMember("", "", "mysql", false); err == nil {
		t.Fatal("empty member accepted")
	}
}

func TestFlushBinlogsEndpoint(t *testing.T) {
	rt, client := testStack(t)
	ring := rt.Shard(0)
	if _, err := client.Write("k", "v"); err != nil {
		t.Fatal(err)
	}
	before := len(ring.Member("mysql-0").Server().BinlogFiles())
	if err := client.FlushBinlogs(); err != nil {
		t.Fatal(err)
	}
	if got := len(ring.Member("mysql-0").Server().BinlogFiles()); got <= before {
		t.Fatalf("files %d -> %d, want rotation", before, got)
	}
}

func TestPartitionAndHealEndpoints(t *testing.T) {
	_, client := testStack(t)
	if err := client.Partition("mysql-0", "mysql-1"); err != nil {
		t.Fatal(err)
	}
	if err := client.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := client.Partition("", ""); err == nil {
		t.Fatal("empty partition accepted")
	}
}

func TestFixQuorumEndpoint(t *testing.T) {
	rt, client := testStack(t)
	// Healthy ring: the fixer must refuse.
	if _, err := client.FixQuorum(false); err == nil {
		t.Fatal("fixer ran on a healthy ring")
	}
	// Shatter region-0 and remediate.
	if _, err := client.Write("k", "v"); err != nil {
		t.Fatal(err)
	}
	// Let region-1 converge so conservative mode has a full-log survivor.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		sums := rt.Shard(0).EngineChecksums()
		if len(sums) == 2 && sums["mysql-0"] == sums["mysql-1"] {
			break
		}
		time.Sleep(time.Millisecond)
	}
	client.Crash("lt-0-0")
	client.Crash("lt-0-1")
	client.Crash("mysql-0")
	chosen, err := client.FixQuorum(false)
	if err != nil {
		t.Fatal(err)
	}
	if chosen == "" {
		t.Fatal("no chosen member reported")
	}
	if _, err := client.Write("post", "fix"); err != nil {
		t.Fatal(err)
	}
}

// TestPurgeEndpointAndLifecycleStatus drives the operator purge surface:
// a purge round with a small retention budget advances the cluster floor,
// and /status reports the lifecycle fields — purge floor, retained log
// window, binlog inventory size.
func TestPurgeEndpointAndLifecycleStatus(t *testing.T) {
	rt, client := testStack(t)
	for i := 0; i < 20; i++ {
		if _, err := client.Write(string(rune('a'+i%26))+"-key", "v"); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := client.FlushBinlogs(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The floor needs every live member durably past it; retry while
	// replication settles.
	var floor uint64
	deadline := time.Now().Add(10 * time.Second)
	for floor == 0 && time.Now().Before(deadline) {
		f, err := client.Purge(5)
		if err != nil {
			t.Fatal(err)
		}
		floor = f
		time.Sleep(5 * time.Millisecond)
	}
	if floor == 0 {
		t.Fatal("purge floor never advanced")
	}
	if got := rt.Shard(0).PurgeFloor(); got != floor {
		t.Fatalf("client floor %d != cluster floor %d", floor, got)
	}

	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.PurgeFloor != floor {
		t.Fatalf("status purge_floor = %d, want %d", st.PurgeFloor, floor)
	}
	for _, m := range st.Members {
		if m.Role != raft.RoleLeader {
			continue
		}
		if m.FirstIndex <= 1 {
			t.Fatalf("leader first_index = %d after purge to %d", m.FirstIndex, floor)
		}
		if m.BinlogBytes <= 0 || len(m.BinlogFiles) == 0 {
			t.Fatalf("leader missing binlog inventory: %+v", m)
		}
		return
	}
	t.Fatal("no leader in status")
}

func TestStatusReportsDurability(t *testing.T) {
	_, client := testStack(t)
	if _, err := client.Write("user:1", "alice"); err != nil {
		t.Fatal(err)
	}
	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range st.Members {
		if m.Role != raft.RoleLeader {
			continue
		}
		d := m.Durability
		if d == nil {
			t.Fatalf("leader status missing durability: %+v", m)
		}
		// The write committed, which requires the leader's own vote, which
		// is gated on local durability — so the fsync pipeline must have
		// run and covered the appended tail.
		if d.Fsyncs == 0 {
			t.Fatalf("no fsyncs recorded: %+v", d)
		}
		if d.DurableIndex == 0 || d.DurableIndex > d.AppendedIndex {
			t.Fatalf("inconsistent durability cursors: %+v", d)
		}
		if d.FsyncBatch.Max == 0 {
			t.Fatalf("fsync batch histogram empty: %+v", d)
		}
		return
	}
	t.Fatal("no leader in status")
}

func TestStatusReportsApply(t *testing.T) {
	_, client := testStack(t)
	if _, err := client.Write("user:1", "alice"); err != nil {
		t.Fatal(err)
	}
	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	sawMySQL := false
	for _, m := range st.Members {
		if m.Kind != "mysql" || m.Down {
			continue
		}
		sawMySQL = true
		a := m.Apply
		if a == nil {
			t.Fatalf("mysql member %s missing apply status: %+v", m.ID, m)
		}
		if a.Workers < 1 {
			t.Fatalf("%s applier has no workers: %+v", m.ID, a)
		}
		// The applier runs on replicas; a promoted leader drains and
		// stops it (§3.3), so Running is only required of followers.
		if m.Role == raft.RoleFollower && !a.Running {
			t.Fatalf("%s follower applier not running: %+v", m.ID, a)
		}
		if a.Lag > a.CommitIndex {
			t.Fatalf("%s apply lag %d exceeds commit index %d", m.ID, a.Lag, a.CommitIndex)
		}
		if a.LastError != "" {
			t.Fatalf("%s applier unhealthy: %s", m.ID, a.LastError)
		}
	}
	if !sawMySQL {
		t.Fatal("no mysql member in status")
	}
}
