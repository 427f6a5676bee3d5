package plugin

import (
	"context"
	"fmt"
	"testing"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/discovery"
	"myraft/internal/gtid"
	"myraft/internal/mysql"
	"myraft/internal/opid"
	"myraft/internal/raft"
	"myraft/internal/storage"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

func newTestPlugin(t *testing.T) (*Plugin, *mysql.Server, *discovery.Registry) {
	t.Helper()
	srv, err := mysql.NewServer(mysql.Options{ID: "mysql-t", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	reg := discovery.NewRegistry()
	return New(srv, "rs-plugin", reg), srv, reg
}

func TestLogStoreDelegation(t *testing.T) {
	p, srv, _ := newTestPlugin(t)
	e := &wire.LogEntry{
		OpID:    opid.OpID{Term: 1, Index: 1},
		Kind:    1,
		HasGTID: true,
		GTID:    gtid.GTID{Source: "u", ID: 1},
		Payload: []byte("row"),
	}
	if err := p.Append(e); err != nil {
		t.Fatal(err)
	}
	if p.LastOpID() != e.OpID {
		t.Fatalf("LastOpID = %v", p.LastOpID())
	}
	if p.FirstIndex() != 1 {
		t.Fatalf("FirstIndex = %d", p.FirstIndex())
	}
	got, err := p.Entry(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "row" || got.GTID != e.GTID {
		t.Fatalf("entry = %+v", got)
	}
	// The entry landed in the server's relay log with its GTID.
	if !srv.GTIDExecuted().Contains(e.GTID) {
		t.Fatalf("gtid missing: %s", srv.GTIDExecuted())
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestEntryKindMappingIsStable(t *testing.T) {
	// The wire and binlog entry kinds share numeric values; the plugin
	// relies on this for its conversions.
	pairs := []struct {
		w wire.EntryType
		b binlog.EntryType
	}{
		{1, binlog.EntryNormal},
		{2, binlog.EntryNoOp},
		{3, binlog.EntryConfig},
		{4, binlog.EntryRotate},
	}
	for _, pr := range pairs {
		if uint8(pr.w) != uint8(pr.b) {
			t.Fatalf("kind mismatch: wire %d vs binlog %d", pr.w, pr.b)
		}
	}
}

func TestTruncateAfterRemovesGTIDs(t *testing.T) {
	p, srv, _ := newTestPlugin(t)
	for i := uint64(1); i <= 5; i++ {
		p.Append(&wire.LogEntry{
			OpID:    opid.OpID{Term: 1, Index: i},
			Kind:    1,
			HasGTID: true,
			GTID:    gtid.GTID{Source: "u", ID: int64(i)},
			Payload: []byte("x"),
		})
	}
	removed, err := p.TruncateAfter(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed = %d", len(removed))
	}
	// §3.3 demotion step 4: truncated GTIDs leave all metadata.
	for i := int64(4); i <= 5; i++ {
		if srv.GTIDExecuted().Contains(gtid.GTID{Source: "u", ID: i}) {
			t.Fatalf("truncated gtid %d still present", i)
		}
	}
	if !srv.GTIDExecuted().Contains(gtid.GTID{Source: "u", ID: 3}) {
		t.Fatal("surviving gtid removed")
	}
}

func TestScanFromStreamsEntries(t *testing.T) {
	p, _, _ := newTestPlugin(t)
	for i := uint64(1); i <= 10; i++ {
		p.Append(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: i}, Kind: 1, Payload: []byte("x")})
	}
	var seen []uint64
	if err := p.ScanFrom(4, func(e *wire.LogEntry) bool {
		seen = append(seen, e.OpID.Index)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 7 || seen[0] != 4 || seen[6] != 10 {
		t.Fatalf("seen = %v", seen)
	}
}

func TestReplicatorWithoutNodeErrors(t *testing.T) {
	p, _, _ := newTestPlugin(t)
	if _, err := p.ProposeTransaction(nil, gtid.GTID{}); err == nil {
		t.Fatal("propose without node succeeded")
	}
	if _, err := p.ProposeRotate(); err == nil {
		t.Fatal("rotate without node succeeded")
	}
	if p.CommitIndex() != 0 {
		t.Fatal("commit index without node")
	}
	if err := p.PurgeSafely(); err == nil {
		t.Fatal("purge without node succeeded")
	}
}

func TestOnDemoteConfiguresReplica(t *testing.T) {
	p, srv, _ := newTestPlugin(t)
	srv.EnableWrites()
	p.OnDemote(3)
	if !srv.IsReadOnly() {
		t.Fatal("writes not disabled by demotion")
	}
	if got := srv.Log().Persona(); got != binlog.PersonaRelay {
		t.Fatalf("persona = %v", got)
	}
}

func TestStaleRoleTransitionsIgnored(t *testing.T) {
	p, srv, _ := newTestPlugin(t)
	p.OnDemote(5)
	// A promotion for an older term must not enable writes.
	p.PromotionTimeout = 100 * time.Millisecond
	p.OnPromote(raft.PromoteInfo{Term: 3, NoOpIndex: 0})
	if !srv.IsReadOnly() {
		t.Fatal("stale promotion enabled writes")
	}
	// A demotion for an older term is also ignored (roleTerm stays 5).
	srv.EnableWrites()
	p.OnDemote(4)
	if srv.IsReadOnly() {
		t.Fatal("stale demotion disabled writes")
	}
}

func TestOnCommitAdvanceForwardsToApplier(t *testing.T) {
	p, srv, _ := newTestPlugin(t)
	// Append a committed entry directly into the relay log and advance
	// the commit marker: the applier should pick it up.
	p.Append(&wire.LogEntry{
		OpID:    opid.OpID{Term: 1, Index: 1},
		Kind:    1,
		HasGTID: true,
		GTID:    gtid.GTID{Source: "u", ID: 1},
		Payload: encodeRow(t, "k", "v"),
	})
	p.OnCommitAdvance(1)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := srv.Read("k"); ok && string(v) == "v" {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("applier never applied after commit advance")
}

func encodeRow(t *testing.T, k, v string) []byte {
	t.Helper()
	return storage.EncodeChanges([]storage.RowChange{{Key: k, After: []byte(v)}})
}

// singleNodeStack wires a real raft node to the plugin on a one-member
// ring, exercising the full promotion path and the Replicator surface.
func singleNodeStack(t *testing.T) (*Plugin, *mysql.Server, *raft.Node, *discovery.Registry) {
	t.Helper()
	srv, err := mysql.NewServer(mysql.Options{ID: "solo", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	reg := discovery.NewRegistry()
	p := New(srv, "rs-solo", reg)
	net := transport.New(transport.Config{IntraRegion: 100 * time.Microsecond}, nil)
	t.Cleanup(net.Close)
	ep := net.Register("solo", "r1")
	node, err := raft.NewNode(raft.Config{
		ID: "solo", Region: "r1", HeartbeatInterval: 10 * time.Millisecond,
	}, p, p, ep, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachNode(node)
	boot := wire.Config{Members: []wire.Member{{ID: "solo", Region: "r1", Voter: true}}}
	if err := node.Start(boot); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	node.CampaignNow()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if id, ok := reg.Primary("rs-solo"); ok && id == "solo" && !srv.IsReadOnly() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("single node never promoted")
		}
		time.Sleep(time.Millisecond)
	}
	return p, srv, node, reg
}

func TestSingleNodePromotionAndWrites(t *testing.T) {
	p, srv, node, _ := singleNodeStack(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Full write path: pipeline → plugin replicator → raft → binlog.
	op, err := srv.Set(ctx, "k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WaitCommitted(ctx, op.Index); err != nil {
		t.Fatal(err)
	}
	if p.CommitIndex() < op.Index {
		t.Fatalf("commit index = %d", p.CommitIndex())
	}
	if node.Status().LastOpID.Index < op.Index {
		t.Fatal("raft log behind")
	}
	if srv.IsReadOnly() || srv.Log().Persona() != binlog.PersonaBinlog {
		t.Fatalf("read-only %v, persona %v", srv.IsReadOnly(), srv.Log().Persona())
	}
}

func TestSingleNodeRotateAndPurgeSafely(t *testing.T) {
	p, srv, _, _ := singleNodeStack(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := srv.Set(ctx, "a", []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.FlushBinaryLogs(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := srv.Set(ctx, "b", []byte("2")); err != nil {
			t.Fatal(err)
		}
	}
	before := len(srv.BinlogFiles())
	if before < 2 {
		t.Fatalf("no rotation: %d files", before)
	}
	// A single-member ring's watermark is its own tail: purge proceeds.
	if err := p.PurgeSafely(); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.BinlogFiles()); got >= before {
		t.Fatalf("purge did nothing: %d -> %d files", before, got)
	}
}

func TestSingleNodeLogMaintenanceLoop(t *testing.T) {
	p, srv, _, _ := singleNodeStack(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	mctx, mcancel := context.WithCancel(ctx)
	defer mcancel()
	go p.RunLogMaintenance(mctx, 5*time.Millisecond, 2048)
	payload := make([]byte, 300)
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; len(srv.BinlogFiles()) < 2; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("maintenance never rotated: %v", srv.BinlogFiles())
		}
		if _, err := srv.Set(ctx, fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
}
