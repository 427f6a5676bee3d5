package raft

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"

	"myraft/internal/opid"
	"myraft/internal/wire"
)

// entryCache is the leader/proxy in-memory log cache (§3.1, §3.4): recent
// entries are kept in memory so replication and proxy reconstitution do
// not need to parse binlog files; entries that fall out of the window are
// read back through the LogStore's historical path.
//
// It is a ring of cachedEntry values: entry i lives in
// slots[i%len(slots)] and the cached indexes are always one contiguous
// run [first, first+n). The ring grows lazily, doubling up to cap entries
// (Config.CacheCapacity), and evicts oldest-first past cap entries or
// cacheBytes stored payload bytes. Payloads are shared with the entry
// handed to add, never copied, and get hands them out again: a log
// entry's payload is immutable once appended (LogStore.Append), so
// sharing it costs nothing and is safe.
//
// Per §3.4 ("Raft compresses the transaction and stores it in its
// in-memory cache"), payloads above a threshold are kept flate-compressed
// and transparently decompressed on read when compression is enabled,
// trading a little CPU for cache density.
//
// The cache is owned by the node's event loop and needs no locking.
type entryCache struct {
	slots    []cachedEntry
	first    uint64 // index of the oldest cached entry
	n        int    // entries cached
	bytes    int    // stored payload bytes
	cap      int
	compress bool
}

// cachedEntry is one cache slot. e.Payload holds the stored form: the
// appended payload itself, or its flate-compressed copy when compressed.
type cachedEntry struct {
	e          wire.LogEntry
	compressed bool
	rawLen     int
}

// compressThreshold is the minimum payload size worth compressing.
const compressThreshold = 128

// cacheBytes bounds the payload bytes the cache holds, whatever
// CacheCapacity allows: at transaction-sized payloads the entry cap alone
// would pin tens of megabytes per member.
const cacheBytes = 8 << 20

func newEntryCache(capacity int, compress bool) *entryCache {
	return &entryCache{cap: max(capacity, 1), compress: compress}
}

// flateWriters pools flate writers: allocating one per append would cost
// ~1 MB and dominate the commit path.
var flateWriters = sync.Pool{
	New: func() any {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	},
}

// compressPayload flate-compresses data, returning (compressed, true)
// only when compression saves space.
func compressPayload(data []byte) ([]byte, bool) {
	if len(data) < compressThreshold {
		return data, false
	}
	w := flateWriters.Get().(*flate.Writer)
	defer flateWriters.Put(w)
	var buf bytes.Buffer
	w.Reset(&buf)
	if _, err := w.Write(data); err != nil {
		return data, false
	}
	if err := w.Close(); err != nil {
		return data, false
	}
	if buf.Len() >= len(data) {
		return data, false
	}
	return buf.Bytes(), true
}

// decompressPayload inflates a compressed cache slot.
func decompressPayload(data []byte, rawLen int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	out := make([]byte, 0, rawLen)
	buf := bytes.NewBuffer(out)
	if _, err := io.Copy(buf, r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// slot returns the ring slot of index.
func (c *entryCache) slot(index uint64) *cachedEntry {
	return &c.slots[index%uint64(len(c.slots))]
}

// holds reports whether index is cached.
func (c *entryCache) holds(index uint64) bool {
	return c.n > 0 && index >= c.first && index < c.first+uint64(c.n)
}

// add inserts an entry at the tail of the cache. Non-contiguous inserts
// reset the cache to the new entry (the window must stay contiguous for
// range reads); a payload larger than the whole byte bound empties it.
func (c *entryCache) add(e *wire.LogEntry) {
	idx := e.OpID.Index
	if c.n > 0 && idx != c.first+uint64(c.n) {
		c.reset()
	}
	ce := cachedEntry{e: *e, rawLen: len(e.Payload)}
	if c.compress {
		ce.e.Payload, ce.compressed = compressPayload(e.Payload)
	}
	size := len(ce.e.Payload)
	if size > cacheBytes {
		c.reset()
		return
	}
	for c.n > 0 && (c.n >= c.cap || c.bytes+size > cacheBytes) {
		c.dropFirst()
	}
	if c.n == len(c.slots) {
		c.grow()
	}
	if c.n == 0 {
		c.first = idx
	}
	*c.slot(idx) = ce
	c.n++
	c.bytes += size
}

// grow doubles the ring (up to cap), re-laying the cached run out by the
// new modulus.
func (c *entryCache) grow() {
	slots := make([]cachedEntry, min(max(2*len(c.slots), 64), c.cap))
	for i := c.first; i < c.first+uint64(c.n); i++ {
		slots[i%uint64(len(slots))] = *c.slot(i)
	}
	c.slots = slots
}

// get returns the cached entry at index, if present, decompressing the
// payload when needed. An uncompressed payload is the appended slice
// itself. A decompression failure (impossible unless memory was
// corrupted) reports a miss, falling back to the log store.
func (c *entryCache) get(index uint64) (wire.LogEntry, bool) {
	if !c.holds(index) {
		return wire.LogEntry{}, false
	}
	ce := c.slot(index)
	e := ce.e
	if ce.compressed {
		raw, err := decompressPayload(ce.e.Payload, ce.rawLen)
		if err != nil {
			return wire.LogEntry{}, false
		}
		e.Payload = raw
	}
	return e, true
}

// meta returns a payload-free copy of the cached entry's header at
// index, if present. Unlike get it never touches the stored payload, so
// proxied sends skip any decompression.
func (c *entryCache) meta(index uint64) (wire.LogEntry, bool) {
	if !c.holds(index) {
		return wire.LogEntry{}, false
	}
	e := c.slot(index).e
	e.Payload = nil
	return e, true
}

// termAt returns the term of the cached entry at index, if present.
func (c *entryCache) termAt(index uint64) (uint64, bool) {
	if !c.holds(index) {
		return 0, false
	}
	return c.slot(index).e.OpID.Term, true
}

// dropFirst evicts the oldest cached entry, clearing its slot so the
// payload can be collected.
func (c *entryCache) dropFirst() {
	s := c.slot(c.first)
	c.bytes -= len(s.e.Payload)
	*s = cachedEntry{}
	c.first++
	c.n--
}

// truncateAfter drops cached entries with index > index.
func (c *entryCache) truncateAfter(index uint64) {
	for c.n > 0 && c.first+uint64(c.n)-1 > index {
		s := c.slot(c.first + uint64(c.n) - 1)
		c.bytes -= len(s.e.Payload)
		*s = cachedEntry{}
		c.n--
	}
}

// dropBelow evicts every cached entry with index < floor. The purge
// coordinator calls it (via Node.NotePurged) so the cache never answers
// for entries the log no longer retains — a lagging peer below the floor
// must take the snapshot path, not be silently served from memory.
func (c *entryCache) dropBelow(floor uint64) {
	for c.n > 0 && c.first < floor {
		c.dropFirst()
	}
}

// reset empties the cache, keeping the ring for reuse.
func (c *entryCache) reset() {
	for c.n > 0 {
		c.dropFirst()
	}
}

// lastOpID returns the OpID of the cache tail, or zero when empty.
func (c *entryCache) lastOpID() opid.OpID {
	if c.n == 0 {
		return opid.Zero
	}
	return c.slot(c.first + uint64(c.n) - 1).e.OpID
}
