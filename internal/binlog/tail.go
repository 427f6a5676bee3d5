package binlog

import "myraft/internal/gtid"

// The in-memory tail's bounds. A replica's applier reads each committed
// entry back moments after appending it (§3.5), so the tail only has to
// cover apply lag, not history; both caps are constants, not options.
const (
	tailCap   = 1024    // entries held
	tailBytes = 4 << 20 // payload bytes held
)

// tail is a ring of the entries most recently appended to a Log, serving
// Entry/Entries without touching a file. Entry i lives in slots[i%tailCap]
// and the held indexes are always the contiguous run [first, first+n)
// ending at the log's tail, so a read inside that run is a hit and
// anything else goes to the files. Slots hold the Entry header by value
// and share the caller's payload, which the immutable-payload rule of
// Log.Append makes safe. Every mutation of the log's entry set (append,
// truncate, purge, reset, crash) updates the ring under Log.mu, keeping
// it exactly equal to what the files would return.
type tail struct {
	slots []Entry // allocated on first push
	first uint64  // index of the oldest held entry
	n     int     // entries held
	bytes int     // payload bytes held
}

// push records e as the newest entry. A payload larger than the whole
// byte budget empties the ring instead (the entry stays file-only), and
// an entry that does not follow the held run restarts it.
func (t *tail) push(e *Entry) {
	size := len(e.Payload)
	if size > tailBytes || (t.n > 0 && e.OpID.Index != t.first+uint64(t.n)) {
		t.reset()
		if size > tailBytes {
			return
		}
	}
	if t.slots == nil {
		t.slots = make([]Entry, tailCap)
	}
	for t.n > 0 && (t.n == tailCap || t.bytes+size > tailBytes) {
		t.dropFirst()
	}
	if t.n == 0 {
		t.first = e.OpID.Index
	}
	s := &t.slots[e.OpID.Index%tailCap]
	*s = *e
	if !s.HasGTID {
		s.GTID = gtid.GTID{} // the file never records an absent GTID
	}
	t.n++
	t.bytes += size
}

// holds reports whether every index of [from, to] is held.
func (t *tail) holds(from, to uint64) bool {
	return t.n > 0 && from <= to && from >= t.first && to < t.first+uint64(t.n)
}

// at returns the held entry at index; the caller checked holds.
func (t *tail) at(index uint64) Entry { return t.slots[index%tailCap] }

// get returns a copy of the held entry at index.
func (t *tail) get(index uint64) (*Entry, bool) {
	if !t.holds(index, index) {
		return nil, false
	}
	e := t.at(index)
	return &e, true
}

// dropFirst evicts the oldest held entry.
func (t *tail) dropFirst() {
	s := &t.slots[t.first%tailCap]
	t.bytes -= len(s.Payload)
	*s = Entry{}
	t.first++
	t.n--
}

// truncateAfter evicts every held entry with index > index.
func (t *tail) truncateAfter(index uint64) {
	for t.n > 0 && t.first+uint64(t.n)-1 > index {
		s := &t.slots[(t.first+uint64(t.n)-1)%tailCap]
		t.bytes -= len(s.Payload)
		*s = Entry{}
		t.n--
	}
}

// dropBelow evicts every held entry with index < floor.
func (t *tail) dropBelow(floor uint64) {
	for t.n > 0 && t.first < floor {
		t.dropFirst()
	}
}

// reset evicts everything, clearing the slots so dropped payloads can be
// collected.
func (t *tail) reset() {
	for t.n > 0 {
		t.dropFirst()
	}
}
