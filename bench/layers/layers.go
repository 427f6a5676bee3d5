// Package layers times each layer of the program from outside, through
// its exported calls only: a fixed number of iterations per layer, with
// nanoseconds and allocations per call read as deltas around the loop.
// The benchmark's traced run reports the numbers as per-layer metrics.
package layers

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/clock"
	"myraft/internal/gtid"
	"myraft/internal/logstore"
	"myraft/internal/metrics"
	"myraft/internal/multiraft"
	"myraft/internal/opid"
	"myraft/internal/raft"
	"myraft/internal/storage"
	"myraft/internal/trace"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// Config shapes the loops like the workload that was just measured.
type Config struct {
	// Dir holds the files the binlog, logstore and storage drivers write.
	Dir string
	// ValueSize is the row value size in bytes.
	ValueSize int
	// Group is the workload's observed mean commit-group size: entries per
	// AppendEntries frame and per ProposeBatch.
	Group int
	// Scale multiplies every iteration count (1 for a full run; the smoke
	// run uses less).
	Scale float64
	// Span, when set, is called with each driver's name and interval.
	Span func(layer, name string, start, end time.Time)
}

// Result is one timed number and the count of calls behind it.
type Result struct {
	Value float64
	N     int
}

// Results holds the metrics by name.
type Results map[string]Result

func (r Results) put(name string, v float64, n int) { r[name] = Result{Value: v, N: n} }

// Run times every layer and returns the metrics by name.
func Run(cfg Config) (Results, error) {
	if cfg.Group < 1 {
		cfg.Group = 1
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	out := make(Results)
	drivers := []struct {
		layer string
		run   func(Config, Results) error
	}{
		{"wire", wireDriver},
		{"transport", inprocDriver},
		{"transport", tcpDriver},
		{"binlog", binlogDriver},
		{"logstore", logstoreDriver},
		{"storage", storageDriver},
		{"raft", raftDriver},
		{"multiraft", routerDriver},
		{"gtid", gtidDriver},
		{"metrics", metricsDriver},
		{"trace", traceDriver},
	}
	for i, d := range drivers {
		start := time.Now()
		if err := d.run(cfg, out); err != nil {
			return nil, fmt.Errorf("layers: %s: %w", d.layer, err)
		}
		if cfg.Span != nil {
			cfg.Span(d.layer, fmt.Sprintf("layers/%s#%d", d.layer, i), start, time.Now())
		}
	}
	return out, nil
}

func (c Config) iters(n int) int { return max(1, int(float64(n)*c.Scale)) }

// measure calls fn n times and returns mean nanoseconds and heap
// allocations per call. Nothing else runs in the process while it does.
func measure(n int, fn func(i int)) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

const benchUUID = gtid.UUID("uuid-bench")

// payload is the binlog payload of a one-row update at the value size.
func payload(cfg Config) []byte {
	row := make([]byte, cfg.ValueSize)
	return storage.EncodeTxnPayload([]storage.RowChange{{Key: "k00001", Before: row, After: row}})
}

func logEntry(index uint64, p []byte) wire.LogEntry {
	return wire.LogEntry{
		OpID:    opid.OpID{Term: 1, Index: index},
		Kind:    wire.EntryType(binlog.EntryNormal),
		HasGTID: true,
		GTID:    gtid.GTID{Source: benchUUID, ID: int64(index)},
		Payload: p,
	}
}

func appendFrame(cfg Config) *wire.AppendEntriesReq {
	p := payload(cfg)
	req := &wire.AppendEntriesReq{Term: 1, LeaderID: "n0", PrevOpID: opid.OpID{Term: 1, Index: 41}, CommitIndex: 40, ReadSeq: 7}
	for i := 0; i < cfg.Group; i++ {
		req.Entries = append(req.Entries, logEntry(uint64(42+i), p))
	}
	return req
}

func wireDriver(cfg Config, out Results) error {
	req := appendFrame(cfg)
	frame, err := wire.Marshal(req)
	if err != nil {
		return err
	}
	g := float64(cfg.Group)
	n := cfg.iters(20000)
	ns, allocs := measure(n, func(int) { _, err = wire.Marshal(req) })
	if err != nil {
		return err
	}
	out.put("wire.marshal_append_ns_per_entry", ns/g, n)
	out.put("wire.marshal_append_allocs_per_entry", allocs/g, n)
	ns, allocs = measure(n, func(int) { _, err = wire.Unmarshal(frame) })
	if err != nil {
		return err
	}
	out.put("wire.unmarshal_append_ns_per_entry", ns/g, n)
	out.put("wire.unmarshal_append_allocs_per_entry", allocs/g, n)
	out.put("wire.append_frame_bytes_per_entry", float64(len(frame))/g, 1)
	return nil
}

// inprocDriver times Endpoint.Send on the simulated network: marshal,
// metering and the hand-off to the link queue. Delivery is asynchronous,
// so sends are paced in bursts the link queue and inbox can hold.
func inprocDriver(cfg Config, out Results) error {
	net := transport.New(transport.Config{IntraRegion: time.Microsecond, CrossRegion: time.Microsecond, Loopback: time.Microsecond}, nil)
	defer net.Close()
	a, b := net.Register("a", "r1"), net.Register("b", "r1")
	req := appendFrame(cfg)
	const burst = 256
	var ns, allocs float64
	rounds := cfg.iters(40)
	for r := 0; r < rounds; r++ {
		var err error
		n, al := measure(burst, func(int) { err = a.Send("b", req) })
		if err != nil {
			return err
		}
		ns, allocs = ns+n, allocs+al
		for i := 0; i < burst; i++ {
			select {
			case <-b.Recv():
			case <-time.After(time.Second):
				return fmt.Errorf("in-process delivery stalled")
			}
		}
	}
	out.put("transport.inproc_send_ns", ns/float64(rounds), rounds*burst)
	out.put("transport.inproc_send_allocs", allocs/float64(rounds), rounds*burst)
	return nil
}

// tcpDriver ping-pongs one AppendEntries frame between two TCPNodes on
// the loopback interface. Where the sandbox allows no sockets the two
// metrics stay 0.
func tcpDriver(cfg Config, out Results) error {
	a, err := transport.NewTCP("a", "127.0.0.1:0")
	if err != nil {
		return nil
	}
	defer a.Close()
	b, err := transport.NewTCP("b", "127.0.0.1:0")
	if err != nil {
		return nil
	}
	defer b.Close()
	a.SetPeer("b", b.Addr())
	b.SetPeer("a", a.Addr())
	req := appendFrame(cfg)
	stop := make(chan struct{})
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			select {
			case env := <-b.Recv():
				_ = b.Send("a", env.Msg) // a lost echo shows as the timeout below
			case <-stop:
				return
			}
		}
	}()
	defer func() { close(stop); <-echoed }()

	n := cfg.iters(2000)
	rtts := make([]float64, 0, n)
	var roundErr error
	_, allocs := measure(n, func(int) {
		start := time.Now()
		if err := a.Send("b", req); err != nil {
			roundErr = err
			return
		}
		select {
		case <-a.Recv():
			rtts = append(rtts, float64(time.Since(start))/float64(time.Microsecond))
		case <-time.After(time.Second):
			roundErr = fmt.Errorf("tcp echo timed out")
		}
	})
	if roundErr != nil {
		return roundErr
	}
	sort.Float64s(rtts)
	out.put("transport.tcp_rtt_p50_us", rtts[len(rtts)/2], n)
	out.put("transport.tcp_send_allocs", allocs/2, 2*n) // two messages per round trip
	return nil
}

func binlogDriver(cfg Config, out Results) error {
	log, err := binlog.Open(binlog.Options{Dir: filepath.Join(cfg.Dir, "binlog")})
	if err != nil {
		return err
	}
	defer log.Close()
	p := payload(cfg)
	n := cfg.iters(20000)
	ns, allocs := measure(n, func(i int) {
		e := logEntry(uint64(i+1), p)
		if aerr := log.Append(logstore.ToBinlogEntry(&e)); aerr != nil {
			err = aerr
		}
	})
	if err != nil {
		return err
	}
	out.put("binlog.append_ns_per_entry", ns, n)
	out.put("binlog.append_allocs_per_entry", allocs, n)
	if err := log.Sync(); err != nil {
		return err
	}

	const span = 64
	reads := max(1, n/span)
	ns, _ = measure(reads, func(i int) {
		from := uint64(i*span + 1)
		if _, rerr := log.Entries(from, min(from+span-1, uint64(n))); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		return err
	}
	out.put("binlog.entries_read_ns_per_entry", ns/span, reads*span)

	syncs := cfg.iters(200)
	var syncNs time.Duration
	for i := 0; i < syncs; i++ {
		e := logEntry(uint64(n+i+1), p)
		if err := log.Append(logstore.ToBinlogEntry(&e)); err != nil {
			return err
		}
		start := time.Now()
		if err := log.Sync(); err != nil {
			return err
		}
		syncNs += time.Since(start)
	}
	out.put("binlog.sync_ns", float64(syncNs.Nanoseconds())/float64(syncs), syncs)
	return nil
}

func logstoreDriver(cfg Config, out Results) error {
	log, err := binlog.Open(binlog.Options{Dir: filepath.Join(cfg.Dir, "logstore")})
	if err != nil {
		return err
	}
	defer log.Close()
	store := logstore.BinlogStore{Log: log}
	p := payload(cfg)
	n := cfg.iters(20000)
	ns, allocs := measure(n, func(i int) {
		e := logEntry(uint64(i+1), p)
		if aerr := store.Append(&e); aerr != nil {
			err = aerr
		}
	})
	out.put("logstore.append_ns_per_entry", ns, n)
	out.put("logstore.append_allocs_per_entry", allocs, n)
	return err
}

func storageDriver(cfg Config, out Results) error {
	eng, err := storage.Open(storage.Options{Dir: filepath.Join(cfg.Dir, "engine")})
	if err != nil {
		return err
	}
	defer eng.Close()
	row := make([]byte, cfg.ValueSize)
	const keys = 1024
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%05d", i)
	}
	var prepare, commit time.Duration
	n := cfg.iters(20000)
	_, allocs := measure(n, func(i int) {
		txn := eng.Begin()
		if serr := txn.Set(names[i%keys], row); serr != nil {
			err = serr
			return
		}
		t0 := time.Now()
		if perr := txn.Prepare(); perr != nil {
			err = perr
			return
		}
		t1 := time.Now()
		if cerr := txn.Commit(opid.OpID{Term: 1, Index: uint64(i + 1)}); cerr != nil {
			err = cerr
		}
		prepare += t1.Sub(t0)
		commit += time.Since(t1)
	})
	if err != nil {
		return err
	}
	out.put("storage.prepare_ns", float64(prepare.Nanoseconds())/float64(n), n)
	out.put("storage.commit_ns", float64(commit.Nanoseconds())/float64(n), n)
	out.put("storage.txn_allocs", allocs, n)
	gets := cfg.iters(200000)
	ns, _ := measure(gets, func(i int) { eng.Get(names[i%keys]) })
	out.put("storage.get_ns", ns, gets)

	changes := []storage.RowChange{{Key: names[1], Before: row, After: row}}
	var enc []byte
	codes := cfg.iters(50000)
	ns, _ = measure(codes, func(int) { enc = storage.EncodeTxnPayload(changes) })
	out.put("storage.payload_encode_ns", ns, codes)
	ns, _ = measure(codes, func(int) { _, _, err = storage.DecodeTxnPayload(enc) })
	out.put("storage.payload_decode_ns", ns, codes)
	return err
}

// memLog is the bench-owned in-memory raft.LogStore of the raft driver:
// it keeps every entry and never touches a device, so what is timed is
// the event loop and the log writer, not storage.
type memLog struct {
	entries []*wire.LogEntry
}

func (l *memLog) Append(e *wire.LogEntry) error {
	if want := uint64(len(l.entries)) + 1; e.OpID.Index != want {
		return fmt.Errorf("memlog: append of index %d, want %d", e.OpID.Index, want)
	}
	l.entries = append(l.entries, e)
	return nil
}

func (l *memLog) Entry(index uint64) (*wire.LogEntry, error) {
	if index == 0 || index > uint64(len(l.entries)) {
		return nil, fmt.Errorf("memlog: no entry %d", index)
	}
	return l.entries[index-1], nil
}

func (l *memLog) LastOpID() opid.OpID {
	if len(l.entries) == 0 {
		return opid.Zero
	}
	return l.entries[len(l.entries)-1].OpID
}

func (l *memLog) FirstIndex() uint64 { return min(1, uint64(len(l.entries))) }

func (l *memLog) TruncateAfter(index uint64) ([]*wire.LogEntry, error) {
	if index >= uint64(len(l.entries)) {
		return nil, nil
	}
	removed := append([]*wire.LogEntry(nil), l.entries[index:]...)
	l.entries = l.entries[:index]
	return removed, nil
}

func (l *memLog) Sync() error { return nil }

// raftDriver proposes groups through a single-voter raft.Node, which
// commits on its own durable ack, and waits for the last one to commit.
func raftDriver(cfg Config, out Results) error {
	net := transport.New(transport.Config{}, nil)
	defer net.Close()
	node, err := raft.NewNode(
		raft.Config{ID: "n0", Region: "r1", HeartbeatInterval: 50 * time.Millisecond, ElectionTimeoutTicks: 3},
		&memLog{}, raft.NopCallbacks{}, net.Register("n0", "r1"), clock.Real())
	if err != nil {
		return err
	}
	boot := wire.Config{Members: []wire.Member{{ID: "n0", Region: "r1", Voter: true}}}
	if err := node.Start(boot); err != nil {
		return err
	}
	defer node.Stop()
	node.CampaignNow()
	deadline := time.Now().Add(5 * time.Second)
	for node.Status().Role != raft.RoleLeader {
		if time.Now().After(deadline) {
			return fmt.Errorf("single-voter node never became leader")
		}
		time.Sleep(time.Millisecond)
	}

	p := payload(cfg)
	reqs := make([]raft.ProposeReq, cfg.Group)
	var next int64
	var last opid.OpID
	batches := max(1, cfg.iters(20000)/cfg.Group)
	ns, allocs := measure(batches, func(int) {
		for i := range reqs {
			next++
			reqs[i] = raft.ProposeReq{Payload: p, GTID: gtid.GTID{Source: benchUUID, ID: next}, HasGTID: true}
		}
		ops, perr := node.ProposeBatch(reqs)
		if perr != nil {
			err = perr
			return
		}
		last = ops[len(ops)-1]
		// One group in flight at a time, like a depth-1 commit pipeline.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if werr := node.WaitCommitted(ctx, last.Index); werr != nil {
			err = werr
		}
		cancel()
	})
	if err != nil {
		return err
	}
	g := float64(cfg.Group)
	out.put("raft.propose_batch_ns_per_entry", ns/g, batches*cfg.Group)
	out.put("raft.propose_batch_allocs_per_entry", allocs/g, batches*cfg.Group)
	return nil
}

func routerDriver(cfg Config, out Results) error {
	const shards = 8
	router, err := multiraft.NewRouter(multiraft.UniformTable(shards), shards)
	if err != nil {
		return err
	}
	const keys = 1024
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%05d", i)
	}
	n := cfg.iters(500000)
	ns, _ := measure(n, func(i int) { router.Route(names[i%keys]) })
	out.put("multiraft.router_lookup_ns", ns, n)
	return nil
}

func gtidDriver(cfg Config, out Results) error {
	set := gtid.NewSet()
	n := cfg.iters(500000)
	ns, _ := measure(n, func(i int) { set.Add(gtid.GTID{Source: benchUUID, ID: int64(i + 1)}) })
	out.put("gtid.set_add_ns", ns, n)
	return nil
}

func metricsDriver(cfg Config, out Results) error {
	h := metrics.NewRegistry().Histogram("bench_seconds")
	n := cfg.iters(500000)
	ns, _ := measure(n, func(i int) { h.Observe(time.Duration(i)) })
	out.put("metrics.observe_ns", ns, n)
	return nil
}

// traceDriver times one sampled span that observes a stage and finishes.
func traceDriver(cfg Config, out Results) error {
	tr := trace.New(metrics.NewRegistry())
	n := cfg.iters(200000)
	ns, _ := measure(n, func(i int) {
		sp := tr.Sample()
		sp.Observe(trace.StageAppend, time.Duration(i))
		sp.Finish("primary")
	})
	out.put("trace.span_ns", ns, n)
	return nil
}
