package readpath

import (
	"context"
	"errors"
	"testing"
	"time"

	"myraft/internal/opid"
)

var errNotLeader = errors.New("fake: not the leader")
var errLeaseExpired = errors.New("fake: lease expired")

// fakeConsensus scripts the consensus-side answers.
type fakeConsensus struct {
	readIndexIdx   uint64
	readIndexErr   error
	leaseIdx       uint64
	leaseErr       error
	readIndexCalls int
	leaseCalls     int
}

func (f *fakeConsensus) ReadIndex(ctx context.Context) (uint64, error) {
	f.readIndexCalls++
	return f.readIndexIdx, f.readIndexErr
}

func (f *fakeConsensus) LeaseRead() (uint64, error) {
	f.leaseCalls++
	return f.leaseIdx, f.leaseErr
}

// fakeSM is a state machine whose applied cursor only advances by test
// action; waits beyond it block until the context expires, like a real
// applier with no incoming commits.
type fakeSM struct {
	applied uint64
	data    map[string][]byte
	waited  []uint64
}

func (f *fakeSM) WaitForApplied(ctx context.Context, index uint64) error {
	f.waited = append(f.waited, index)
	if index <= f.applied {
		return nil
	}
	<-ctx.Done()
	return ctx.Err()
}

func (f *fakeSM) Read(key string) ([]byte, bool) {
	v, ok := f.data[key]
	return v, ok
}

func TestReadLinearizable(t *testing.T) {
	c := &fakeConsensus{readIndexIdx: 7}
	sm := &fakeSM{applied: 7, data: map[string][]byte{"k": []byte("v")}}
	r := NewReader(c, sm, nil)

	res, err := r.ReadLinearizable(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || string(res.Value) != "v" {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Index != 7 || res.Level != LevelLinearizable || res.FellBack {
		t.Fatalf("bad result metadata: %+v", res)
	}
	if len(sm.waited) != 1 || sm.waited[0] != 7 {
		t.Fatalf("state machine waited on %v, want [7]: the read must gate on the ReadIndex", sm.waited)
	}
	if r.Metrics().Linearizable.Count() != 1 {
		t.Fatal("latency not recorded")
	}
}

func TestReadLinearizableRejectedOffLeader(t *testing.T) {
	c := &fakeConsensus{readIndexErr: errNotLeader}
	sm := &fakeSM{data: map[string][]byte{"k": []byte("stale")}}
	r := NewReader(c, sm, nil)

	if _, err := r.ReadLinearizable(context.Background(), "k"); !errors.Is(err, errNotLeader) {
		t.Fatalf("err = %v, want consensus rejection", err)
	}
	if len(sm.waited) != 0 {
		t.Fatal("rejected read still touched the state machine")
	}
	if r.Metrics().StaleRejections.Value() != 1 {
		t.Fatal("stale rejection not counted")
	}
}

func TestReadLeaseServedLocally(t *testing.T) {
	c := &fakeConsensus{leaseIdx: 4}
	sm := &fakeSM{applied: 4, data: map[string][]byte{"k": []byte("v")}}
	r := NewReader(c, sm, nil)

	res, err := r.ReadLease(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if res.FellBack || res.Index != 4 || res.Level != LevelLease {
		t.Fatalf("bad result: %+v", res)
	}
	if c.readIndexCalls != 0 {
		t.Fatal("lease read took a quorum round despite a valid lease")
	}
	if r.Metrics().LeaseFallbacks.Value() != 0 {
		t.Fatal("spurious fallback counted")
	}
}

func TestReadLeaseFallsBackToReadIndex(t *testing.T) {
	c := &fakeConsensus{leaseErr: errLeaseExpired, readIndexIdx: 9}
	sm := &fakeSM{applied: 9, data: map[string][]byte{"k": []byte("v")}}
	r := NewReader(c, sm, nil)

	res, err := r.ReadLease(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack || res.Index != 9 {
		t.Fatalf("bad fallback result: %+v", res)
	}
	if c.readIndexCalls != 1 {
		t.Fatalf("ReadIndex calls = %d, want 1", c.readIndexCalls)
	}
	if r.Metrics().LeaseFallbacks.Value() != 1 {
		t.Fatal("fallback not counted")
	}
}

func TestReadLeaseRejectedWhenFallbackFails(t *testing.T) {
	// The stale-leader endgame: lease expired AND the quorum round fails
	// (deposed or partitioned). The read must error, never serve locally.
	c := &fakeConsensus{leaseErr: errLeaseExpired, readIndexErr: errNotLeader}
	sm := &fakeSM{data: map[string][]byte{"k": []byte("stale")}}
	r := NewReader(c, sm, nil)

	if _, err := r.ReadLease(context.Background(), "k"); !errors.Is(err, errNotLeader) {
		t.Fatalf("err = %v, want fallback rejection", err)
	}
	if len(sm.waited) != 0 {
		t.Fatal("rejected lease read still read the state machine")
	}
	m := r.Metrics()
	if m.LeaseFallbacks.Value() != 1 || m.StaleRejections.Value() != 1 {
		t.Fatalf("counters = fallbacks %d, rejections %d; want 1, 1",
			m.LeaseFallbacks.Value(), m.StaleRejections.Value())
	}
}

func TestReadSessionWaitsForToken(t *testing.T) {
	sm := &fakeSM{applied: 5, data: map[string][]byte{"k": []byte("mine")}}
	r := NewReader(&fakeConsensus{}, sm, nil)

	var tok Token
	tok.Observe(opid.OpID{Term: 2, Index: 5})
	res, err := r.ReadSession(context.Background(), tok, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "mine" || res.Index != 5 || res.Level != LevelSession {
		t.Fatalf("bad result: %+v", res)
	}
	if len(sm.waited) != 1 || sm.waited[0] != 5 {
		t.Fatalf("waited on %v, want the token index", sm.waited)
	}
}

func TestReadSessionBlocksOnUnappliedToken(t *testing.T) {
	// A follower that has not yet applied the client's write must hold the
	// read (bounded by ctx), not return the stale value.
	sm := &fakeSM{applied: 3, data: map[string][]byte{"k": []byte("old")}}
	r := NewReader(&fakeConsensus{}, sm, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	tok := Token{LastWrite: opid.OpID{Term: 1, Index: 10}}
	if _, err := r.ReadSession(ctx, tok, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline (blocked on unapplied token)", err)
	}
	if r.Metrics().StaleRejections.Value() != 1 {
		t.Fatal("timed-out session read not counted as rejection")
	}
}

func TestTokenObserveMonotonic(t *testing.T) {
	var tok Token
	tok.Observe(opid.OpID{Term: 2, Index: 9})
	tok.Observe(opid.OpID{Term: 1, Index: 50}) // older term: ignored
	if tok.LastWrite != (opid.OpID{Term: 2, Index: 9}) {
		t.Fatalf("token regressed: %v", tok.LastWrite)
	}
	tok.Observe(opid.OpID{Term: 2, Index: 10})
	if tok.LastWrite.Index != 10 {
		t.Fatalf("token did not advance: %v", tok.LastWrite)
	}
}

func TestTokenStringRoundTrip(t *testing.T) {
	tok := Token{LastWrite: opid.OpID{Term: 3, Index: 1234}}
	got, err := ParseToken(tok.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != tok {
		t.Fatalf("round trip: %v vs %v", got, tok)
	}
	for _, bad := range []string{"", "7", "a.b", "3.", ".4"} {
		if _, err := ParseToken(bad); err == nil {
			t.Fatalf("ParseToken(%q) accepted", bad)
		}
	}
}

// TestMetricsCapped: a member's read histograms stay bounded however
// many reads it serves, while still counting every one.
func TestMetricsCapped(t *testing.T) {
	m := NewMetrics()
	const limit, n = 4096, 4096 + 1000
	for i := 0; i < n; i++ {
		m.Lease.Observe(time.Duration(i) * time.Microsecond)
	}
	if m.Lease.Count() != n {
		t.Fatalf("Count = %d, want all %d observations", m.Lease.Count(), n)
	}
	if r := m.Lease.Retained(); r > limit {
		t.Fatalf("Retained = %d, want at most %d", r, limit)
	}
	if p := m.Lease.Percentile(50); p <= 0 {
		t.Fatalf("capped percentile = %v", p)
	}
}
