package multiraft

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"myraft/internal/opid"
	"myraft/internal/raft"
	"myraft/internal/wire"
)

// stubStore is a LogStore stub that counts its physical syncs. With gate
// set, Sync announces itself on entered and then blocks until the test
// sends on gate, so a test decides which syncs are in flight together.
type stubStore struct {
	syncs   atomic.Int64
	entered chan<- *stubStore
	gate    chan struct{}
	err     error
	anchor  opid.OpID
}

func (s *stubStore) Append(*wire.LogEntry) error                    { return nil }
func (s *stubStore) Entry(uint64) (*wire.LogEntry, error)           { return nil, errors.New("empty") }
func (s *stubStore) LastOpID() opid.OpID                            { return opid.Zero }
func (s *stubStore) FirstIndex() uint64                             { return 0 }
func (s *stubStore) TruncateAfter(uint64) ([]*wire.LogEntry, error) { return nil, nil }
func (s *stubStore) Sync() error {
	s.syncs.Add(1)
	if s.gate != nil {
		s.entered <- s
		<-s.gate
	}
	return s.err
}
func (s *stubStore) SnapshotAnchor() opid.OpID { return s.anchor }
func (s *stubStore) ScanFrom(from uint64, fn func(*wire.LogEntry) bool) error {
	return nil
}

// syncResult is one finished SyncGroup.Sync call.
type syncResult struct {
	store *stubStore
	err   error
}

// Eight rings' log writers on one node: all eight fsyncs must be in
// flight together (a group that serialized or batched them into rounds
// would never let the eighth store enter Sync while the first is still
// inside), and a stalled or failing store must leave its neighbours'
// syncs alone.
func TestSyncGroupOverlapsStores(t *testing.T) {
	g := NewSyncGroup()
	const n = 8
	deadline := time.After(10 * time.Second)
	entered := make(chan *stubStore, n)
	results := make(chan syncResult, n)
	boom := errors.New("fsync: device lost")
	stores := make([]*stubStore, n)
	for i := range stores {
		st := &stubStore{entered: entered, gate: make(chan struct{})}
		stores[i] = st
		go func() { results <- syncResult{st, g.Sync(st)} }()
	}
	stalled, failing := stores[0], stores[1]
	failing.err = boom

	for i := 0; i < n; i++ {
		select {
		case <-entered:
		case <-deadline:
			t.Fatalf("only %d of %d stores entered Sync while the others were still inside", i, n)
		}
	}

	// Release everyone but the stalled store: each finishes with its own
	// result while the stalled sync is still in flight.
	for _, st := range stores[1:] {
		st.gate <- struct{}{}
	}
	for i := 1; i < n; i++ {
		select {
		case r := <-results:
			switch {
			case r.store == stalled:
				t.Fatal("stalled store's Sync returned before it was released")
			case r.store == failing && !errors.Is(r.err, boom):
				t.Fatalf("failing store's Sync = %v, want %v", r.err, boom)
			case r.store != failing && r.err != nil:
				t.Fatalf("healthy store's Sync = %v; a neighbour's failure leaked", r.err)
			}
		case <-deadline:
			t.Fatalf("%d of %d released syncs still waiting behind the stalled store", n-i, n-1)
		}
	}

	stalled.gate <- struct{}{}
	select {
	case r := <-results:
		if r.err != nil {
			t.Fatalf("stalled store's Sync = %v after release", r.err)
		}
	case <-deadline:
		t.Fatal("stalled store's Sync never returned")
	}
}

// Every request is one physical sync of its own store with its own
// result: the same-store contract once each store has a single caller.
func TestSyncGroupCountsEverySync(t *testing.T) {
	g := NewSyncGroup()
	stores := []*stubStore{{}, {}, {}}
	const perStore = 25
	var wg sync.WaitGroup
	for _, st := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perStore; j++ {
				if err := g.Sync(st); err != nil {
					t.Errorf("Sync: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	var physical int64
	for _, st := range stores {
		if got := st.syncs.Load(); got != perStore {
			t.Fatalf("store saw %d syncs for %d requests", got, perStore)
		}
		physical += st.syncs.Load()
	}
	stats := g.Stats()
	if stats.Requests != physical || stats.Syncs != physical {
		t.Fatalf("stats = %+v, stores saw %d physical syncs", stats, physical)
	}
}

// The wrapper must keep satisfying the optional interfaces raft probes
// for at Start — hiding ScanFrom or SnapshotAnchor would silently break
// recovery and the snapshot boundary.
func TestWrapForwardsOptionalInterfaces(t *testing.T) {
	g := NewSyncGroup()
	anchor := opid.OpID{Term: 3, Index: 77}
	inner := &stubStore{anchor: anchor}
	wrapped := g.Wrap(inner)
	a, ok := wrapped.(interface{ SnapshotAnchor() opid.OpID })
	if !ok {
		t.Fatal("wrapper hides SnapshotAnchor")
	}
	if got := a.SnapshotAnchor(); got != anchor {
		t.Fatalf("SnapshotAnchor = %+v, want %+v", got, anchor)
	}
	if _, ok := wrapped.(interface {
		ScanFrom(from uint64, fn func(*wire.LogEntry) bool) error
	}); !ok {
		t.Fatal("wrapper hides ScanFrom")
	}
	var _ raft.LogStore = wrapped
	if err := wrapped.Sync(); err != nil {
		t.Fatal(err)
	}
	if inner.syncs.Load() != 1 || g.Stats().Syncs != 1 {
		t.Fatalf("wrapped Sync: store saw %d, group counted %d", inner.syncs.Load(), g.Stats().Syncs)
	}
}
