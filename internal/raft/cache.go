package raft

import (
	"myraft/internal/opid"
	"myraft/internal/wire"
)

// entryCache is the leader/proxy in-memory log cache (§3.1, §3.4): recent
// entries are kept in memory so replication and proxy reconstitution do
// not need to parse binlog files; entries that fall out of the window are
// read back through the LogStore's historical path.
//
// It is a ring of log entries: entry i lives in
// slots[i%len(slots)] and the cached indexes are always one contiguous
// run [first, first+n). The ring grows lazily, doubling up to cap entries
// (cacheCapacity for a node), and evicts oldest-first past cap entries or
// cacheBytes payload bytes. Payloads are shared with the entry
// handed to add, never copied, and get hands them out again: a log
// entry's payload is immutable once appended (LogStore.Append), so
// sharing it costs nothing and is safe.
//
// The cache is owned by the node's event loop and needs no locking.
type entryCache struct {
	slots []wire.LogEntry
	first uint64 // index of the oldest cached entry
	n     int    // entries cached
	bytes int    // cached payload bytes
	cap   int
}

// cacheCapacity is the entry bound of a node's cache.
const cacheCapacity = 16384

// cacheBytes bounds the payload bytes the cache holds, whatever
// cacheCapacity allows: at transaction-sized payloads the entry cap alone
// would pin tens of megabytes per member.
const cacheBytes = 8 << 20

func newEntryCache(capacity int) *entryCache {
	return &entryCache{cap: max(capacity, 1)}
}

// slot returns the ring slot of index.
func (c *entryCache) slot(index uint64) *wire.LogEntry {
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
	size := len(e.Payload)
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
	*c.slot(idx) = *e
	c.n++
	c.bytes += size
}

// grow doubles the ring (up to cap), re-laying the cached run out by the
// new modulus.
func (c *entryCache) grow() {
	slots := make([]wire.LogEntry, min(max(2*len(c.slots), 64), c.cap))
	for i := c.first; i < c.first+uint64(c.n); i++ {
		slots[i%uint64(len(slots))] = *c.slot(i)
	}
	c.slots = slots
}

// get returns the cached entry at index, if present. Its payload is the
// appended slice itself.
func (c *entryCache) get(index uint64) (wire.LogEntry, bool) {
	if !c.holds(index) {
		return wire.LogEntry{}, false
	}
	return *c.slot(index), true
}

// meta returns a payload-free copy of the cached entry's header at
// index, if present.
func (c *entryCache) meta(index uint64) (wire.LogEntry, bool) {
	if !c.holds(index) {
		return wire.LogEntry{}, false
	}
	e := *c.slot(index)
	e.Payload = nil
	return e, true
}

// termAt returns the term of the cached entry at index, if present.
func (c *entryCache) termAt(index uint64) (uint64, bool) {
	if !c.holds(index) {
		return 0, false
	}
	return c.slot(index).OpID.Term, true
}

// dropFirst evicts the oldest cached entry, clearing its slot so the
// payload can be collected.
func (c *entryCache) dropFirst() {
	s := c.slot(c.first)
	c.bytes -= len(s.Payload)
	*s = wire.LogEntry{}
	c.first++
	c.n--
}

// truncateAfter drops cached entries with index > index.
func (c *entryCache) truncateAfter(index uint64) {
	for c.n > 0 && c.first+uint64(c.n)-1 > index {
		s := c.slot(c.first + uint64(c.n) - 1)
		c.bytes -= len(s.Payload)
		*s = wire.LogEntry{}
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
	return c.slot(c.first + uint64(c.n) - 1).OpID
}
