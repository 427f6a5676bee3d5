package mysql

import (
	"fmt"
	"testing"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/gtid"
	"myraft/internal/opid"
	"myraft/internal/storage"
	"myraft/internal/wire"
)

// benchServer builds a replica-mode server with a manual-commit fake
// replicator, the follower shape both catch-up paths run against.
func benchServer(b *testing.B, id string) (*Server, *fakeReplicator) {
	b.Helper()
	s, err := NewServer(Options{ID: wire.NodeID(id), Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	f := newFakeReplicator(s)
	f.manual = true
	s.AttachReplicator(f)
	return s, f
}

// benchFeed replays n transactions through the server's relay log and
// applier — the log-replay catch-up path, end to end.
func benchFeed(b *testing.B, s *Server, f *fakeReplicator, n int) {
	b.Helper()
	for i := 1; i <= n; i++ {
		e := &binlog.Entry{
			OpID:    opid.OpID{Term: 1, Index: uint64(i)},
			Type:    binlog.EntryNormal,
			HasGTID: true,
			GTID:    gtid.GTID{Source: "bench-primary", ID: int64(i)},
			Payload: storage.EncodeChanges([]storage.RowChange{
				{Key: fmt.Sprintf("key%d", i), After: []byte(fmt.Sprintf("v%d", i))},
			}),
		}
		if err := s.Log().Append(e); err != nil {
			b.Fatal(err)
		}
	}
	f.mu.Lock()
	f.next = uint64(n) + 1
	f.mu.Unlock()
	f.release(uint64(n))
	deadline := time.Now().Add(5 * time.Minute)
	for s.ApplyStatus().Position < uint64(n) {
		if time.Now().After(deadline) {
			b.Fatalf("applier stalled at %d / %d", s.ApplyStatus().Position, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkSnapshotCatchup compares the two ways a member that lost the
// race with the purge coordinator can be brought current on a 50k-entry
// history: replaying the full log through the applier versus installing
// the leader's engine checkpoint (the snapshot path of the bounded-log
// lifecycle). The snapshot path's advantage is what justifies
// sacrificing laggards to purging at all.
func BenchmarkSnapshotCatchup(b *testing.B) {
	const entries = 50_000

	// Source member with the full history applied; its checkpoint is what
	// the leader would stream.
	src, srcRepl := benchServer(b, "bench-src")
	benchFeed(b, src, srcRepl, entries)
	data, anchor, gtids, err := src.Checkpoint(nil)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, f := benchServer(b, fmt.Sprintf("bench-replay-%d", i))
			b.StartTimer()
			benchFeed(b, s, f, entries)
		}
	})

	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, _ := benchServer(b, fmt.Sprintf("bench-snap-%d", i))
			b.StartTimer()
			if err := s.InstallCheckpoint(data, anchor, gtids); err != nil {
				b.Fatal(err)
			}
			if s.Log().Anchor() != anchor {
				b.Fatal("install did not anchor the log")
			}
		}
	})
}
