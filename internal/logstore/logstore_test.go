package logstore

import (
	"testing"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/gtid"
	"myraft/internal/opid"
	"myraft/internal/wire"
)

func openStore(t *testing.T) BinlogStore {
	t.Helper()
	log, err := binlog.Open(binlog.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return BinlogStore{Log: log}
}

func entry(term, index uint64, payload string) *wire.LogEntry {
	return &wire.LogEntry{
		OpID:    opid.OpID{Term: term, Index: index},
		Kind:    1,
		HasGTID: true,
		GTID:    gtid.GTID{Source: "u", ID: int64(index)},
		Payload: []byte(payload),
	}
}

func TestConversionRoundTrip(t *testing.T) {
	e := entry(3, 7, "payload")
	be := ToBinlogEntry(e)
	if be.OpID != e.OpID || be.Type != binlog.EntryType(e.Kind) || be.GTID != e.GTID || string(be.Payload) != "payload" {
		t.Fatalf("to binlog: %+v", be)
	}
	back := ToWireEntry(be)
	if back.OpID != e.OpID || back.Kind != e.Kind || back.GTID != e.GTID || string(back.Payload) != "payload" || back.HasGTID != e.HasGTID {
		t.Fatalf("to wire: %+v", back)
	}
}

func TestStoreImplementsLogStoreContract(t *testing.T) {
	s := openStore(t)
	if s.FirstIndex() != 0 || !s.LastOpID().IsZero() {
		t.Fatal("fresh store not empty")
	}
	for i := uint64(1); i <= 5; i++ {
		if err := s.Append(entry(1, i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if s.FirstIndex() != 1 || s.LastOpID().Index != 5 {
		t.Fatalf("bounds: %d..%v", s.FirstIndex(), s.LastOpID())
	}
	e, err := s.Entry(3)
	if err != nil || e.OpID.Index != 3 {
		t.Fatalf("Entry(3) = %v %v", e, err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	removed, err := s.TruncateAfter(2)
	if err != nil || len(removed) != 3 {
		t.Fatalf("truncate: %d removed, %v", len(removed), err)
	}
	if removed[0].OpID.Index != 3 || removed[0].Kind != 1 {
		t.Fatalf("removed[0] = %+v", removed[0])
	}
}

func TestScanFromConvertsEntries(t *testing.T) {
	s := openStore(t)
	for i := uint64(1); i <= 6; i++ {
		s.Append(entry(1, i, "x"))
	}
	var indexes []uint64
	if err := s.ScanFrom(3, func(e *wire.LogEntry) bool {
		if e.Kind != 1 || !e.HasGTID {
			t.Fatalf("conversion lost fields: %+v", e)
		}
		indexes = append(indexes, e.OpID.Index)
		return e.OpID.Index < 5 // early stop
	}); err != nil {
		t.Fatal(err)
	}
	if len(indexes) != 3 || indexes[0] != 3 || indexes[2] != 5 {
		t.Fatalf("indexes = %v", indexes)
	}
}

func TestDelayedForwardsAndDelays(t *testing.T) {
	s := openStore(t)
	d := Delayed{Inner: s, SyncDelay: 20 * time.Millisecond}
	for i := uint64(1); i <= 3; i++ {
		if err := d.Append(entry(1, i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if d.LastOpID().Index != 3 || d.FirstIndex() != 1 {
		t.Fatalf("bounds: %d..%v", d.FirstIndex(), d.LastOpID())
	}
	start := time.Now()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 20*time.Millisecond {
		t.Fatalf("sync returned in %v, before the modeled device latency", took)
	}
	e, err := d.Entry(2)
	if err != nil || e.OpID.Index != 2 {
		t.Fatalf("Entry(2) = %v %v", e, err)
	}
	// ScanFrom must reach the inner store's sequential scan.
	var got []uint64
	if err := d.ScanFrom(2, func(e *wire.LogEntry) bool {
		got = append(got, e.OpID.Index)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("scan = %v", got)
	}
	if removed, err := d.TruncateAfter(1); err != nil || len(removed) != 2 {
		t.Fatalf("truncate: %d removed, %v", len(removed), err)
	}
}

// Both wrappers forward the two optional methods raft probes for through
// one helper pair: over a store that has the fast paths they reach them,
// and over one that hides them (plain is only a Store) the scan falls
// back to per-entry reads and the anchor is zero.
func TestWrappersForwardOptionalMethods(t *testing.T) {
	s := openStore(t)
	for i := uint64(1); i <= 4; i++ {
		if err := s.Append(entry(1, i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	anchor := opid.OpID{Term: 1, Index: 4}
	if err := s.Log.ResetTo(anchor, gtid.NewSet()); err != nil {
		t.Fatal(err)
	}
	for i := uint64(5); i <= 7; i++ {
		if err := s.Append(entry(1, i, "y")); err != nil {
			t.Fatal(err)
		}
	}
	type plain struct{ Store }
	type forwarder interface {
		SnapshotAnchor() opid.OpID
		ScanFrom(from uint64, fn func(*wire.LogEntry) bool) error
	}
	cases := []struct {
		name   string
		w      forwarder
		anchor opid.OpID
	}{
		{"delayed/fast", Delayed{Inner: s}, anchor},
		{"faulty/fast", NewFaulty(s), anchor},
		{"delayed/fallback", Delayed{Inner: plain{s}}, opid.Zero},
		{"faulty/fallback", NewFaulty(plain{s}), opid.Zero},
	}
	for _, c := range cases {
		if got := c.w.SnapshotAnchor(); got != c.anchor {
			t.Fatalf("%s: SnapshotAnchor = %+v, want %+v", c.name, got, c.anchor)
		}
		var got []uint64
		if err := c.w.ScanFrom(6, func(e *wire.LogEntry) bool {
			got = append(got, e.OpID.Index)
			return e.OpID.Index < 7
		}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != 2 || got[0] != 6 || got[1] != 7 {
			t.Fatalf("%s: scan = %v, want [6 7]", c.name, got)
		}
	}
}
