package logtailer

import (
	"fmt"
	"testing"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/opid"
	"myraft/internal/raft"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

func TestNewOpensRelayLog(t *testing.T) {
	lt, err := New("lt-1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	if lt.ID() != "lt-1" {
		t.Fatalf("ID = %s", lt.ID())
	}
	if got := lt.Log().Persona(); got != binlog.PersonaRelay {
		t.Fatalf("persona = %v", got)
	}
}

func TestLogStoreRoundTrip(t *testing.T) {
	lt, err := New("lt-1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	store := lt.LogStore()
	e := &wire.LogEntry{OpID: opid.OpID{Term: 1, Index: 1}, Kind: 1, Payload: []byte("data")}
	if err := store.Append(e); err != nil {
		t.Fatal(err)
	}
	got, err := store.Entry(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "data" || got.OpID != e.OpID {
		t.Fatalf("round trip: %+v", got)
	}
	if store.LastOpID() != e.OpID {
		t.Fatalf("LastOpID = %v", store.LastOpID())
	}
}

func TestCrashAndRecover(t *testing.T) {
	dir := t.TempDir()
	lt, err := New("lt-1", dir)
	if err != nil {
		t.Fatal(err)
	}
	store := lt.LogStore()
	store.Append(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: 1}, Kind: 1, Payload: []byte("synced")})
	store.Sync()
	store.Append(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: 2}, Kind: 1, Payload: []byte("torn")})
	lt.Crash()

	lt2, err := New("lt-1", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	// The synced entry survived; the torn one may be gone (buffered).
	if lt2.LogStore().LastOpID().Index < 1 {
		t.Fatalf("synced entry lost: %v", lt2.LogStore().LastOpID())
	}
}

func TestBestTransferTarget(t *testing.T) {
	st := raft.Status{
		Config: wire.Config{Members: []wire.Member{
			{ID: "self", Region: "r1", Voter: true, Witness: true},
			{ID: "lt-2", Region: "r1", Voter: true, Witness: true},
			{ID: "mysql-a", Region: "r1", Voter: true},
			{ID: "mysql-b", Region: "r2", Voter: true},
			{ID: "learner", Region: "r2", Voter: false},
		}},
		Match: map[wire.NodeID]uint64{"mysql-a": 5, "mysql-b": 9, "lt-2": 100, "learner": 50},
	}
	// Highest-match non-witness voter wins; witnesses and learners are
	// never targets.
	if got := bestTransferTarget(st, "self", nil); got != "mysql-b" {
		t.Fatalf("target = %s", got)
	}
	// Exclusions are honoured: OnPromote excludes the leader it replaced
	// and every target that failed.
	if got := bestTransferTarget(st, "self", map[wire.NodeID]bool{"mysql-b": true}); got != "mysql-a" {
		t.Fatalf("target with exclusion = %s", got)
	}
	// Right after an election every match index is zero: the first
	// MySQL voter in config order that is not excluded is picked, with no
	// wait for an acknowledgement.
	st.Match = nil
	if got := bestTransferTarget(st, "self", nil); got != "mysql-a" {
		t.Fatalf("target with no acks = %s", got)
	}
	if got := bestTransferTarget(st, "self", map[wire.NodeID]bool{"mysql-a": true}); got != "mysql-b" {
		t.Fatalf("target with no acks, previous leader excluded = %s", got)
	}
	if got := bestTransferTarget(st, "self", map[wire.NodeID]bool{"mysql-a": true, "mysql-b": true}); got != "" {
		t.Fatalf("target with every MySQL voter excluded = %s", got)
	}
}

func TestCallbacksAreNoopsWithoutNode(t *testing.T) {
	lt, err := New("lt-1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	// Must not panic or block.
	lt.OnPromote(raft.PromoteInfo{Term: 1, NoOpIndex: 1})
	lt.OnDemote(1)
	lt.OnCommitAdvance(1)
	lt.OnMembershipChange(wire.Config{})
	_ = lt.TransferDelay
	_ = time.Millisecond
}

// TestOnPromoteHandsOffAtOnce runs the paper topology on raft nodes whose
// witnesses are Logtailers. The primary crashes and so does the MySQL
// voter first in config order; the witness that wins the election must
// skip the leader it replaced, give up on the dead first choice within
// one election timeout and hand leadership to the live MySQL voter
// within two.
func TestOnPromoteHandsOffAtOnce(t *testing.T) {
	const hb = 30 * time.Millisecond
	net := transport.New(transport.Config{IntraRegion: 200 * time.Microsecond, CrossRegion: 2 * time.Millisecond}, nil)
	t.Cleanup(net.Close)
	var cfg wire.Config
	for r := 0; r < 3; r++ {
		region := wire.Region(fmt.Sprintf("region-%d", r))
		cfg.Members = append(cfg.Members,
			wire.Member{ID: wire.NodeID(fmt.Sprintf("mysql-%d", r)), Region: region, Voter: true},
			wire.Member{ID: wire.NodeID(fmt.Sprintf("lt-%d-0", r)), Region: region, Voter: true, Witness: true},
			wire.Member{ID: wire.NodeID(fmt.Sprintf("lt-%d-1", r)), Region: region, Voter: true, Witness: true},
		)
	}
	nodes := make(map[wire.NodeID]*raft.Node)
	for _, m := range cfg.Members {
		lt, err := New(m.ID, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lt.Close() })
		var cb raft.Callbacks = raft.NopCallbacks{}
		if m.Witness {
			cb = lt
		}
		n, err := raft.NewNode(raft.Config{ID: m.ID, Region: m.Region, HeartbeatInterval: hb},
			lt.LogStore(), cb, net.Register(m.ID, m.Region), nil)
		if err != nil {
			t.Fatal(err)
		}
		lt.AttachNode(n)
		if err := n.Start(cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		nodes[m.ID] = n
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	nodes["mysql-0"].CampaignNow()
	waitFor("mysql-0 to lead", func() bool { return nodes["mysql-0"].Status().Role == raft.RoleLeader })
	waitFor("lt-0-0 to follow mysql-0", func() bool { return nodes["lt-0-0"].Status().Leader == "mysql-0" })

	net.SetNodeDown("mysql-0", true)
	net.SetNodeDown("mysql-1", true)
	nodes["lt-0-0"].CampaignNow()
	waitFor("lt-0-0 to lead", func() bool { return nodes["lt-0-0"].Status().Role == raft.RoleLeader })
	elected := time.Now()
	waitFor("mysql-2 to lead", func() bool { return nodes["mysql-2"].Status().Role == raft.RoleLeader })
	// The longest election timeout: three beats plus two of jitter.
	if took, limit := time.Since(elected), 2*5*hb; took > limit {
		t.Fatalf("witness handed off after %v, want within two election timeouts (%v)", took, limit)
	}
}
