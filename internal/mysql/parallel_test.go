package mysql

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/gtid"
	"myraft/internal/opid"
	"myraft/internal/storage"
	"myraft/internal/wire"
)

// genWorkload builds n seeded transactions over a keyspace. conflictRate
// is the probability that a row comes from a small hot set (forcing
// writeset conflicts between nearby transactions); the rest spread over
// the large keyspace. ~10% of rows are deletes.
func genWorkload(seed int64, n, keyspace int, conflictRate float64, maxRows int) [][]storage.RowChange {
	rng := rand.New(rand.NewSource(seed))
	const hotKeys = 8
	txns := make([][]storage.RowChange, n)
	for i := range txns {
		rows := 1 + rng.Intn(maxRows)
		changes := make([]storage.RowChange, 0, rows)
		for r := 0; r < rows; r++ {
			var key string
			if rng.Float64() < conflictRate {
				key = fmt.Sprintf("hot-%d", rng.Intn(hotKeys))
			} else {
				key = fmt.Sprintf("key-%d", rng.Intn(keyspace))
			}
			if rng.Float64() < 0.1 {
				changes = append(changes, storage.RowChange{Key: key}) // delete
			} else {
				val := make([]byte, 32+rng.Intn(96))
				rng.Read(val)
				changes = append(changes, storage.RowChange{Key: key, After: val})
			}
		}
		txns[i] = changes
	}
	return txns
}

// newWorkerReplica builds a replica with the given apply concurrency in
// an explicit dir (so the engine WAL can be inspected and the server
// reopened after a crash).
func newWorkerReplica(t testing.TB, dir string, workers int) (*Server, *fakeReplicator) {
	t.Helper()
	s, err := NewServer(Options{ID: "replica-p", Dir: dir, ApplyWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	f := newFakeReplicator(s)
	f.manual = true
	s.AttachReplicator(f)
	return s, f
}

// feedTxns appends the workload to the relay log (writeset-bearing
// payloads, uncommitted) starting after the log's current tail.
func feedTxns(t testing.TB, s *Server, f *fakeReplicator, txns [][]storage.RowChange, firstIndex uint64) {
	t.Helper()
	for i, changes := range txns {
		idx := firstIndex + uint64(i)
		e := &binlog.Entry{
			OpID:    opid.OpID{Term: 1, Index: idx},
			Type:    binlog.EntryNormal,
			HasGTID: true,
			GTID:    gtid.GTID{Source: "primary-uuid", ID: int64(idx)},
			Payload: storage.EncodeTxnPayload(changes),
		}
		if err := s.Log().Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	f.next = firstIndex + uint64(len(txns))
	f.mu.Unlock()
}

func waitAppliedIndex(t testing.TB, s *Server, index uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.ApplyStatus().Position < index {
		if time.Now().After(deadline) {
			t.Fatalf("applier stalled at %d / %d (lastErr %v)",
				s.ApplyStatus().Position, index, s.ApplyStatus().LastError)
		}
		time.Sleep(time.Millisecond)
	}
}

// engineCommitSeq reads the engine WAL's commit sequence and asserts it
// is strictly increasing (the gap-free engine commit order the restart
// cursor depends on), returning the raw sequence for cross-member
// comparison.
func engineCommitSeq(t *testing.T, s *Server, dir string) []opid.OpID {
	t.Helper()
	if err := s.Engine().Sync(); err != nil {
		t.Fatal(err)
	}
	ops, err := storage.WALCommitOps(filepath.Join(dir, "engine"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].Index <= ops[i-1].Index {
			t.Fatalf("engine commit sequence not strictly increasing at %d: %v then %v",
				i, ops[i-1], ops[i])
		}
	}
	return ops
}

// TestParallelSerialEquivalence is the correctness property of the
// parallel applier: for seeded workloads across conflict rates, a replica
// applying with 8 workers must reach exactly the state a serial replica
// reaches — identical engine contents, GTID set, recovery cursor, and an
// identical strictly-ordered engine commit sequence.
func TestParallelSerialEquivalence(t *testing.T) {
	cases := []struct {
		name         string
		conflictRate float64
		seed         int64
	}{
		{"no-conflicts", 0.0, 101},
		{"low-conflicts", 0.05, 202},
		{"high-conflicts", 0.5, 303},
		{"all-hot", 1.0, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			txns := genWorkload(tc.seed, 400, 2048, tc.conflictRate, 6)
			n := uint64(len(txns))

			serialDir, parDir := t.TempDir(), t.TempDir()
			serial, sf := newWorkerReplica(t, serialDir, 1)
			par, pf := newWorkerReplica(t, parDir, 8)

			feedTxns(t, serial, sf, txns, 1)
			feedTxns(t, par, pf, txns, 1)
			sf.release(n)
			pf.release(n)
			waitAppliedIndex(t, serial, n)
			waitAppliedIndex(t, par, n)

			if sc, pc := serial.Checksum(), par.Checksum(); sc != pc {
				t.Fatalf("engine checksum diverged: serial %08x parallel %08x", sc, pc)
			}
			if sg, pg := serial.GTIDExecuted().String(), par.GTIDExecuted().String(); sg != pg {
				t.Fatalf("gtid_executed diverged: serial %q parallel %q", sg, pg)
			}
			if se, pe := serial.Engine().LastCommitted(), par.Engine().LastCommitted(); se != pe {
				t.Fatalf("recovery cursor diverged: serial %v parallel %v", se, pe)
			}
			sOps := engineCommitSeq(t, serial, serialDir)
			pOps := engineCommitSeq(t, par, parDir)
			if !reflect.DeepEqual(sOps, pOps) {
				t.Fatalf("engine commit sequences diverged: serial %d ops, parallel %d ops",
					len(sOps), len(pOps))
			}

			st := par.ApplyStatus()
			if st.Workers != 8 || st.ParallelBatches == 0 {
				t.Fatalf("parallel replica did not schedule parallel batches: %+v", st)
			}
		})
	}
}

// TestParallelApplyLegacyPayloadsFallBackSerial checks that v1 payloads
// (no writeset) still apply correctly through the parallel machinery —
// every transaction degrades to a serial barrier.
func TestParallelApplyLegacyPayloadsFallBackSerial(t *testing.T) {
	dir := t.TempDir()
	s, f := newWorkerReplica(t, dir, 8)
	const n = 50
	for i := uint64(1); i <= n; i++ {
		e := &binlog.Entry{
			OpID:    opid.OpID{Term: 1, Index: i},
			Type:    binlog.EntryNormal,
			HasGTID: true,
			GTID:    gtid.GTID{Source: "primary-uuid", ID: int64(i)},
			Payload: storage.EncodeChanges([]storage.RowChange{ // legacy framing
				{Key: "k", After: []byte(fmt.Sprintf("v%d", i))},
			}),
		}
		if err := s.Log().Append(e); err != nil {
			t.Fatal(err)
		}
	}
	f.mu.Lock()
	f.next = n + 1
	f.mu.Unlock()
	f.release(n)
	waitAppliedIndex(t, s, n)

	if v, ok := s.Read("k"); !ok || string(v) != fmt.Sprintf("v%d", n) {
		t.Fatalf("k = %q %v, want v%d", v, ok, n)
	}
	st := s.ApplyStatus()
	if st.ConflictFallbacks != st.TrackedTxns || st.FallbackRate != 1.0 {
		t.Fatalf("legacy payloads must all fall back: %+v", st)
	}
	engineCommitSeq(t, s, dir)
}

// TestParallelApplyCrashRestart crashes a parallel replica mid-apply and
// verifies the restart-cursor recovery: after reopening from the same
// dir and re-releasing the commit marker, the replica converges to the
// serial reference state and the engine commit sequence — across both
// lives of the process — is still strictly increasing.
func TestParallelApplyCrashRestart(t *testing.T) {
	txns := genWorkload(777, 300, 1024, 0.1, 5)
	n := uint64(len(txns))

	// Serial reference.
	refDir := t.TempDir()
	ref, rf := newWorkerReplica(t, refDir, 1)
	feedTxns(t, ref, rf, txns, 1)
	rf.release(n)
	waitAppliedIndex(t, ref, n)

	// Parallel replica, crashed mid-apply.
	dir := t.TempDir()
	s, f := newWorkerReplica(t, dir, 8)
	feedTxns(t, s, f, txns, 1)
	f.release(n)
	for s.ApplyStatus().Position < n/4 { // let it get partway in
		time.Sleep(100 * time.Microsecond)
	}
	s.Crash()

	// Reopen from the same dir: recovery rolls back prepared-uncommitted
	// transactions and the applier restarts from the engine cursor.
	s2, err := NewServer(Options{ID: "replica-p", Dir: dir, ApplyWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cursor := s2.Engine().LastCommitted()
	if cursor.Index > n {
		t.Fatalf("recovered cursor %v beyond fed range", cursor)
	}
	f2 := newFakeReplicator(s2)
	f2.manual = true
	s2.AttachReplicator(f2)
	tail := s2.Log().LastOpID().Index // the crash may have torn the log tail
	if tail < n {
		feedTxns(t, s2, f2, txns[tail:], tail+1)
	}
	f2.release(n)
	waitAppliedIndex(t, s2, n)

	if rc, pc := ref.Checksum(), s2.Checksum(); rc != pc {
		t.Fatalf("post-crash state diverged: ref %08x parallel %08x", rc, pc)
	}
	if rg, pg := ref.GTIDExecuted().String(), s2.GTIDExecuted().String(); rg != pg {
		t.Fatalf("post-crash gtid diverged: ref %q parallel %q", rg, pg)
	}
	// Both lives share one WAL; the commit sequence must still be strictly
	// increasing through the crash boundary.
	engineCommitSeq(t, s2, dir)
}

// TestWaitersDoNotAccumulate is the regression test for the bounded
// waiter list: cancelled waits unregister themselves and satisfied waits
// are drained eagerly, so churn cannot grow applier.waiters.
func TestWaitersDoNotAccumulate(t *testing.T) {
	dir := t.TempDir()
	s, f := newWorkerReplica(t, dir, 4)

	// Cancelled waits on indexes far in the future must not leak.
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
		_ = s.WaitForApplied(ctx, 1_000_000+uint64(i))
		cancel()
	}
	if n := s.applier.waiterCount(); n != 0 {
		t.Fatalf("%d waiters leaked after cancelled waits", n)
	}

	// Churn: interleave satisfied waits with progress.
	txns := genWorkload(555, 100, 256, 0.1, 3)
	feedTxns(t, s, f, txns, 1)
	done := make(chan error, 100)
	for i := 1; i <= 100; i++ {
		go func(idx uint64) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			done <- s.WaitForApplied(ctx, idx)
		}(uint64(i))
	}
	for i := uint64(1); i <= 100; i += 10 {
		f.release(min(i+9, 100))
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	waitAppliedIndex(t, s, 100)
	deadline := time.Now().Add(5 * time.Second)
	for s.applier.waiterCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters remain after all waits returned", s.applier.waiterCount())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestApplyStatusSurfacesLag checks the /status plumbing: lag is
// commitIdx - applied while the applier is behind, and drains to zero.
func TestApplyStatusSurfacesLag(t *testing.T) {
	dir := t.TempDir()
	s, f := newWorkerReplica(t, dir, 2)
	txns := genWorkload(99, 40, 128, 0, 2)
	feedTxns(t, s, f, txns, 1)

	st := s.ApplyStatus()
	if !st.Running || st.Workers != 2 || st.Lag != 0 {
		t.Fatalf("pre-release status = %+v", st)
	}
	f.release(40)
	waitAppliedIndex(t, s, 40)
	st = s.ApplyStatus()
	if st.Lag != 0 || st.Position != 40 || st.CommitIndex != 40 {
		t.Fatalf("post-apply status = %+v", st)
	}
	if st.AppliedTxns != 40 {
		t.Fatalf("AppliedTxns = %d, want 40", st.AppliedTxns)
	}
}

// BenchmarkParallelApply measures replica apply throughput on a low
// (~5%) conflict workload at 1, 4 and 8 workers: the time from the
// commit marker's release to the applier fully caught up. The engine
// runs with a simulated staging latency (Options.PrepareLatency)
// modelling the page reads a real engine performs per transaction — the
// blocking the worker pool exists to overlap, and the only component a
// single-core host can overlap at all. The acceptance bar for the
// parallel applier is >=2x the serial rate at 8 workers.
func BenchmarkParallelApply(b *testing.B) {
	const (
		nTxns      = 2000
		keyspace   = 1 << 16
		stagingLat = 200 * time.Microsecond
	)
	txns := genBenchWorkload(42, nTxns, keyspace, 0.05, 8, 256)

	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := NewServer(Options{
					ID:           wire.NodeID(fmt.Sprintf("bench-pa-%d-%d", workers, i)),
					Dir:          b.TempDir(),
					ApplyWorkers: workers,
					Engine:       storage.Options{PrepareLatency: stagingLat},
				})
				if err != nil {
					b.Fatal(err)
				}
				f := newFakeReplicator(s)
				f.manual = true
				s.AttachReplicator(f)
				feedTxns(b, s, f, txns, 1)
				b.StartTimer()

				f.release(nTxns)
				deadline := time.Now().Add(5 * time.Minute)
				for s.ApplyStatus().Position < uint64(nTxns) {
					if time.Now().After(deadline) {
						b.Fatalf("applier stalled at %d (err %v)",
							s.ApplyStatus().Position, s.ApplyStatus().LastError)
					}
					time.Sleep(100 * time.Microsecond)
				}

				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(nTxns*b.N)/b.Elapsed().Seconds(), "txns/sec")
		})
	}
}

// genBenchWorkload is genWorkload with fixed-size values (decode cost is
// what the worker pool parallelizes, so the benchmark pins it).
func genBenchWorkload(seed int64, n, keyspace int, conflictRate float64, rows, valSize int) [][]storage.RowChange {
	rng := rand.New(rand.NewSource(seed))
	const hotKeys = 8
	txns := make([][]storage.RowChange, n)
	for i := range txns {
		changes := make([]storage.RowChange, rows)
		for r := range changes {
			var key string
			if rng.Float64() < conflictRate {
				key = fmt.Sprintf("hot-%d", rng.Intn(hotKeys))
			} else {
				key = fmt.Sprintf("key-%d", rng.Intn(keyspace))
			}
			val := make([]byte, valSize)
			rng.Read(val)
			changes[r] = storage.RowChange{Key: key, After: val}
		}
		txns[i] = changes
	}
	return txns
}
