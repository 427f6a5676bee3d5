package raft

import (
	"bytes"
	"testing"
	"testing/quick"

	"myraft/internal/opid"
	"myraft/internal/wire"
)

func cacheEntry(term, index uint64) *wire.LogEntry {
	return &wire.LogEntry{OpID: opid.OpID{Term: term, Index: index}}
}

// slotOf returns the cache slot holding index (tests inspect the stored
// form through it).
func slotOf(t *testing.T, c *entryCache, index uint64) *wire.LogEntry {
	t.Helper()
	if !c.holds(index) {
		t.Fatalf("index %d not cached", index)
	}
	return c.slot(index)
}

func TestCacheAddAndGet(t *testing.T) {
	c := newEntryCache(10)
	for i := uint64(1); i <= 5; i++ {
		c.add(cacheEntry(1, i))
	}
	for i := uint64(1); i <= 5; i++ {
		e, ok := c.get(i)
		if !ok || e.OpID.Index != i {
			t.Fatalf("get(%d) = %v %v", i, e, ok)
		}
	}
	if _, ok := c.get(6); ok {
		t.Fatal("phantom entry")
	}
	if c.lastOpID() != (opid.OpID{Term: 1, Index: 5}) {
		t.Fatalf("lastOpID = %v", c.lastOpID())
	}
}

func TestCacheEvictsOldest(t *testing.T) {
	c := newEntryCache(3)
	for i := uint64(1); i <= 5; i++ {
		c.add(cacheEntry(1, i))
	}
	if _, ok := c.get(1); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.get(2); ok {
		t.Fatal("second entry not evicted")
	}
	for i := uint64(3); i <= 5; i++ {
		if _, ok := c.get(i); !ok {
			t.Fatalf("entry %d evicted prematurely", i)
		}
	}
}

func TestCacheNonContiguousResets(t *testing.T) {
	c := newEntryCache(10)
	c.add(cacheEntry(1, 1))
	c.add(cacheEntry(1, 2))
	c.add(cacheEntry(2, 10)) // gap: reset
	if _, ok := c.get(1); ok {
		t.Fatal("stale window survived reset")
	}
	if e, ok := c.get(10); !ok || e.OpID.Term != 2 {
		t.Fatal("new window missing")
	}
	// The reset cleared the old slots: no stale payload stays reachable.
	for i := range c.slots {
		if s := &c.slots[i]; s.OpID.Index != 0 && s.OpID.Index != 10 {
			t.Fatalf("slot %d still holds index %d", i, s.OpID.Index)
		}
	}
}

func TestCacheTruncateAfter(t *testing.T) {
	c := newEntryCache(10)
	for i := uint64(1); i <= 8; i++ {
		c.add(cacheEntry(1, i))
	}
	c.truncateAfter(5)
	if _, ok := c.get(6); ok {
		t.Fatal("truncated entry present")
	}
	if e, ok := c.get(5); !ok || e.OpID.Index != 5 {
		t.Fatal("kept entry missing")
	}
	if c.lastOpID().Index != 5 {
		t.Fatalf("lastOpID = %v", c.lastOpID())
	}
	// Truncating below the window empties it.
	c.truncateAfter(0)
	if c.lastOpID() != opid.Zero {
		t.Fatalf("lastOpID after full truncate = %v", c.lastOpID())
	}
	// Appends restart cleanly.
	c.add(cacheEntry(3, 1))
	if e, ok := c.get(1); !ok || e.OpID.Term != 3 {
		t.Fatal("append after reset failed")
	}
}

func TestCacheTermAt(t *testing.T) {
	c := newEntryCache(10)
	c.add(cacheEntry(7, 1))
	if term, ok := c.termAt(1); !ok || term != 7 {
		t.Fatalf("termAt = %d %v", term, ok)
	}
	if _, ok := c.termAt(2); ok {
		t.Fatal("phantom term")
	}
}

// Property: the cache window is always contiguous and within capacity,
// every cached index sits in its own ring slot, and every other slot is
// cleared.
func TestCacheWindowInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newEntryCache(8)
		next := uint64(1)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				c.add(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: next}, Payload: []byte{byte(op)}})
				next++
			case 2:
				cut := uint64(op) % (next + 1)
				c.truncateAfter(cut)
				if cut < next {
					next = cut + 1
				}
			case 3:
				c.dropBelow(uint64(op) % (next + 1))
			}
			if c.n > 8 || len(c.slots) > 8 {
				return false
			}
			bytes, held := 0, 0
			for i := range c.slots {
				s := &c.slots[i]
				if c.holds(s.OpID.Index) && c.slot(s.OpID.Index) == s {
					bytes += len(s.Payload)
					held++
				} else if s.OpID != opid.Zero || s.Payload != nil {
					return false // a slot outside the window was not cleared
				}
			}
			if held != c.n || bytes != c.bytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheRingWrapsAround: far more entries than the ring holds keep
// landing in index mod capacity, and the ring grows lazily to the cap.
func TestCacheRingWrapsAround(t *testing.T) {
	c := newEntryCache(100)
	c.add(cacheEntry(1, 1))
	if len(c.slots) != 64 {
		t.Fatalf("first add sized the ring to %d slots, want 64", len(c.slots))
	}
	for i := uint64(2); i <= 1000; i++ {
		c.add(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: i}, Payload: []byte{byte(i)}})
	}
	if len(c.slots) != 100 || c.n != 100 || c.first != 901 {
		t.Fatalf("ring %d slots holding %d from %d, want 100 holding 100 from 901", len(c.slots), c.n, c.first)
	}
	for i := uint64(901); i <= 1000; i++ {
		e, ok := c.get(i)
		if !ok || e.OpID.Index != i || e.Payload[0] != byte(i) {
			t.Fatalf("get(%d) = %+v %v", i, e, ok)
		}
	}
	if _, ok := c.get(900); ok {
		t.Fatal("evicted entry still served")
	}
}

// TestCacheDropBelowAndResetClearSlots: evictions clear the slots they
// free, so the ring never pins a payload it no longer serves.
func TestCacheDropBelowAndResetClearSlots(t *testing.T) {
	c := newEntryCache(16)
	for i := uint64(1); i <= 10; i++ {
		c.add(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: i}, Payload: make([]byte, 10)})
	}
	c.dropBelow(7)
	if c.first != 7 || c.n != 4 || c.bytes != 40 {
		t.Fatalf("after dropBelow(7): first %d n %d bytes %d", c.first, c.n, c.bytes)
	}
	for i := uint64(1); i < 7; i++ {
		if s := c.slot(i); s.Payload != nil {
			t.Fatalf("slot of dropped index %d still holds a payload", i)
		}
	}
	c.reset()
	if c.n != 0 || c.bytes != 0 {
		t.Fatalf("after reset: n %d bytes %d", c.n, c.bytes)
	}
	for i := range c.slots {
		if c.slots[i].Payload != nil {
			t.Fatalf("slot %d still holds a payload after reset", i)
		}
	}
}

// TestCacheByteBoundEvicts: payload bytes, not just the entry count,
// bound the cache.
func TestCacheByteBoundEvicts(t *testing.T) {
	c := newEntryCache(1000)
	chunk := cacheBytes / 4
	for i := uint64(1); i <= 6; i++ {
		c.add(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: i}, Payload: make([]byte, chunk)})
	}
	if c.n != 4 || c.first != 3 || c.bytes != cacheBytes {
		t.Fatalf("cache holds %d from %d (%d bytes), want 4 from 3", c.n, c.first, c.bytes)
	}
	// One payload over the whole bound is not cached and empties the
	// cache; the next entry starts a fresh window.
	c.add(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: 7}, Payload: make([]byte, cacheBytes+1)})
	if c.n != 0 || c.bytes != 0 {
		t.Fatalf("cache holds %d entries after an oversized add", c.n)
	}
	c.add(cacheEntry(1, 8))
	if _, ok := c.get(8); !ok {
		t.Fatal("entry after the oversized one not cached")
	}
}

// TestCacheSharesPayloads: the cache keeps and returns the appended
// payload itself (the immutable-payload rule), not a copy.
func TestCacheSharesPayloads(t *testing.T) {
	c := newEntryCache(10)
	payload := []byte("shared")
	c.add(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: 1}, Payload: payload})
	got, _ := c.get(1)
	if &got.Payload[0] != &payload[0] {
		t.Fatal("get returned a copy of the payload")
	}
}

// TestCacheAddAndGetAllocateNothing pins the hot path:
// add copies a header into a slot, get returns a value.
func TestCacheAddAndGetAllocateNothing(t *testing.T) {
	c := newEntryCache(64)
	payload := make([]byte, 600)
	next := uint64(1)
	for ; next <= 64; next++ { // grow the ring to its cap first
		c.add(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: next}, Payload: payload})
	}
	e := wire.LogEntry{Kind: 1, HasGTID: true, Payload: payload}
	if n := testing.AllocsPerRun(500, func() {
		e.OpID = opid.OpID{Term: 1, Index: next}
		c.add(&e)
		next++
	}); n != 0 {
		t.Errorf("add: %v allocs, want 0", n)
	}
	var sink wire.LogEntry
	if n := testing.AllocsPerRun(500, func() {
		sink, _ = c.get(next - 1)
	}); n != 0 {
		t.Errorf("get: %v allocs, want 0", n)
	}
	_ = sink
}

func TestCacheUncompressedMode(t *testing.T) {
	c := newEntryCache(10)
	payload := bytes.Repeat([]byte("abcdefgh"), 512)
	c.add(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: 1}, Payload: payload})
	if s := slotOf(t, c, 1); !bytes.Equal(s.Payload, payload) {
		t.Fatal("payload not stored as appended")
	}
	got, ok := c.get(1)
	if !ok || !bytes.Equal(got.Payload, payload) {
		t.Fatal("round trip failed")
	}
}
