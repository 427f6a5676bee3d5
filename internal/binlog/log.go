package binlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"myraft/internal/gtid"
	"myraft/internal/opid"
)

// Persona selects the naming role of newly created log files. MySQL uses
// binlogs on a primary and relay-logs on a replica; promotion/demotion
// rewires between the two (§3.2–3.3). The logical entry sequence is
// unaffected by the persona.
type Persona int

const (
	// PersonaBinlog names files "binlog.NNNNNN" (primary mode).
	PersonaBinlog Persona = iota
	// PersonaRelay names files "relaylog.NNNNNN" (replica mode).
	PersonaRelay
)

// Prefix returns the file-name prefix for the persona.
func (p Persona) Prefix() string {
	if p == PersonaRelay {
		return "relaylog"
	}
	return "binlog"
}

func (p Persona) String() string { return p.Prefix() }

// Options configures a Log.
type Options struct {
	// Dir is the directory holding the log files and the index file.
	Dir string
	// Persona selects binlog vs relay-log naming for new files.
	Persona Persona
}

// indexFileName is the sidecar file listing log files in order, mirroring
// MySQL's binlog index file.
const indexFileName = "log.index"

// FileInfo describes one log file, as reported by SHOW BINARY LOGS.
type FileInfo struct {
	Name       string `json:"name"`
	FirstIndex uint64 `json:"-"` // index of the first entry, 0 when the file has none
	LastIndex  uint64 `json:"-"` // index of the last entry, 0 when the file has none
	Size       int64  `json:"size"`
}

// entryLoc records where an entry lives on disk.
type entryLoc struct {
	file   *logFile
	offset int64
	length int64
}

// logFile is the in-memory bookkeeping for one on-disk file. Its entries
// are the contiguous run firstIndex..lastIndex (none when firstIndex is
// 0), laid out back to back up to size.
type logFile struct {
	name       string
	firstIndex uint64
	lastIndex  uint64
	size       int64
	// starts is the entry index: entry firstIndex+i begins at starts[i]
	// and ends where the next begins, the last one at size. It holds no
	// pointers, so the garbage collector never scans it.
	starts []int64
}

// push records an entry of n bytes written at the end of the file.
func (f *logFile) push(index uint64, n int64) {
	if f.firstIndex == 0 {
		f.firstIndex = index
	}
	f.lastIndex = index
	f.starts = append(f.starts, f.size)
	f.size += n
}

// end returns the offset just past entry index, which the file holds.
func (f *logFile) end(index uint64) int64 {
	if next := index - f.firstIndex + 1; next < uint64(len(f.starts)) {
		return f.starts[next]
	}
	return f.size
}

// locateLocked finds the file and byte range of the entry at index. The
// newest files hold the entries read most, so the search runs backwards.
func (l *Log) locateLocked(index uint64) (entryLoc, bool) {
	for i := len(l.files) - 1; i >= 0; i-- {
		f := l.files[i]
		if f.firstIndex == 0 || index < f.firstIndex {
			continue
		}
		if index > f.lastIndex {
			break
		}
		start := f.starts[index-f.firstIndex]
		return entryLoc{file: f, offset: start, length: f.end(index) - start}, true
	}
	return entryLoc{}, false
}

// Log is a file-backed replicated-log store. All methods are safe for
// concurrent use.
type Log struct {
	mu      sync.Mutex
	dir     string
	persona Persona

	files  []*logFile
	active *logFile
	f      *os.File
	w      *bufio.Writer

	firstIndex uint64 // lowest live entry index; 0 when the log is empty
	lastOpID   opid.OpID
	anchor     opid.OpID // snapshot anchor set by ResetTo; Zero when none
	gtids      *gtid.Set // GTIDs of every entry ever appended (incl. purged)
	seq        int       // sequence number of the next file to create

	dirty    bool  // writes since the last successful fsync
	unsynced int64 // bytes appended since the last successful fsync

	// tail holds the most recently appended entries in memory (tail.go);
	// Entry and Entries read the files only when it misses.
	tail tail

	// enc is Append's reusable encode buffer, kept between appends unless
	// an entry grew it past maxRetainedEncode.
	enc []byte

	// Lifetime I/O accounting, surfaced by Stats for the /metrics scrape.
	statAppends     int64 // entries appended
	statAppendBytes int64 // encoded bytes appended
	statSyncs       int64 // fsyncs that actually hit the disk
	statNoopSyncs   int64 // Sync calls coalesced away by the dirty check
	statFileReads   int64 // Entry/Entries calls the tail missed
}

// maxRetainedEncode bounds the encode buffer a Log keeps between appends,
// so one multi-megabyte transaction does not pin its size for good.
const maxRetainedEncode = 1 << 20

// Stats is a point-in-time snapshot of the log's lifetime I/O counters.
type Stats struct {
	// Appends is the number of entries appended since Open.
	Appends int64 `json:"appends" metric:"binlog_appends"`
	// AppendBytes is the encoded bytes appended since Open.
	AppendBytes int64 `json:"append_bytes" metric:"binlog_append_bytes"`
	// Syncs counts fsyncs that reached the disk.
	Syncs int64 `json:"syncs" metric:"binlog_syncs"`
	// NoopSyncs counts Sync calls coalesced into no-ops by group commit.
	NoopSyncs int64 `json:"noop_syncs" metric:"binlog_noop_syncs"`
	// FileReads counts Entry/Entries calls the in-memory tail could not
	// serve, which read and decode the log files instead.
	FileReads int64 `json:"file_reads"`
}

// Stats returns the lifetime I/O counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:     l.statAppends,
		AppendBytes: l.statAppendBytes,
		Syncs:       l.statSyncs,
		NoopSyncs:   l.statNoopSyncs,
		FileReads:   l.statFileReads,
	}
}

// ErrNotFound is returned when a requested entry index is not on disk
// (purged, truncated, or never written).
var ErrNotFound = errors.New("binlog: entry not found")

// ErrOutOfOrder is returned when an appended entry does not directly
// follow the current tail.
var ErrOutOfOrder = errors.New("binlog: append out of order")

// Open opens (or creates) the log in opts.Dir, recovering state from the
// index file and the log files. A torn final entry (crash mid-write) is
// truncated away, implementing case 1 of the paper's recovery discussion
// (§A.2): a transaction that never fully reached the log is simply gone.
// Any other damaged record, one in a file that is not the active one or
// one followed by a decodable entry, is corruption of entries that may
// have been synced and acked: Open returns an *ErrCorrupt naming its file
// and offset and changes nothing on disk.
func Open(opts Options) (*Log, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("binlog: %w", err)
	}
	l := &Log{
		dir:     opts.Dir,
		persona: opts.Persona,
		gtids:   gtid.NewSet(),
		seq:     1,
	}
	names, err := l.readIndexFile()
	if err != nil {
		return nil, err
	}
	skipped := false
	// torn is the damaged last record of the newest file recovered so far:
	// a torn write if that file is the active one, corruption otherwise.
	var torn *ErrCorrupt
	for _, name := range names {
		damaged, err := l.recoverFile(name)
		if errors.Is(err, os.ErrNotExist) {
			// A crash between a purge's file unlink and its index rewrite
			// leaves the index listing files that are gone. The entries in
			// them were purgeable by definition, so skip and re-persist the
			// corrected index below.
			skipped = true
			continue
		}
		if err != nil {
			return nil, err
		}
		if torn != nil {
			torn.Reason += " in a file that is not the active one"
			return nil, torn
		}
		torn = damaged
	}
	if l.lastOpID.Index < l.anchor.Index {
		// Freshly reset log with no appends yet: the tail is the anchor.
		l.lastOpID = l.anchor
	}
	if skipped && len(l.files) > 0 {
		if err := l.writeIndexFileLocked(); err != nil {
			return nil, err
		}
	}
	if len(l.files) == 0 {
		if err := l.createFileLocked(); err != nil {
			return nil, err
		}
	} else {
		last := l.files[len(l.files)-1]
		f, err := os.OpenFile(filepath.Join(l.dir, last.name), os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("binlog: reopen active: %w", err)
		}
		if err := f.Truncate(last.size); err != nil {
			f.Close()
			return nil, fmt.Errorf("binlog: trim torn tail: %w", err)
		}
		if _, err := f.Seek(last.size, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("binlog: seek: %w", err)
		}
		l.active = last
		l.f = f
		l.w = bufio.NewWriter(f)
	}
	return l, nil
}

// readIndexFile returns the ordered file names from the index file, or nil
// when it does not exist yet.
func (l *Log) readIndexFile() ([]string, error) {
	data, err := os.ReadFile(filepath.Join(l.dir, indexFileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("binlog: read index: %w", err)
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line != "" {
			names = append(names, line)
		}
	}
	return names, nil
}

// writeIndexFileLocked persists the current file list.
func (l *Log) writeIndexFileLocked() error {
	var b strings.Builder
	for _, f := range l.files {
		b.WriteString(f.name)
		b.WriteByte('\n')
	}
	tmp := filepath.Join(l.dir, indexFileName+".tmp")
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("binlog: write index: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, indexFileName)); err != nil {
		return fmt.Errorf("binlog: install index: %w", err)
	}
	return nil
}

// recoverFile scans one file, rebuilding its entry index, the GTIDs and
// the tail position. The scan stops at the first record that does not
// decode. If a decodable entry follows it, that is corruption and the
// error; otherwise the record is returned as damaged, a torn tail only if
// the file turns out to be the active one (Open decides). Either way the
// error names the first index recovery could not read.
func (l *Log) recoverFile(name string) (damaged *ErrCorrupt, err error) {
	path := filepath.Join(l.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("binlog: recover %s: %w", name, err)
	}
	lf := &logFile{name: name}
	if seq, ok := fileSeq(name); ok && seq >= l.seq {
		l.seq = seq + 1
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic) {
		return nil, &ErrCorrupt{File: name, Offset: 0, Reason: "bad magic"}
	}
	pos := int64(len(magic))
	// Header events: format description, previous GTIDs.
	for i := 0; i < 2; i++ {
		ev, n, err := decodeEvent(data[pos:])
		if err != nil || ev == nil {
			return nil, &ErrCorrupt{File: name, Offset: pos, Reason: "bad header event"}
		}
		if i == 0 && ev.typ != EventFormatDesc {
			return nil, &ErrCorrupt{File: name, Offset: pos, Reason: "missing format description"}
		}
		if i == 1 {
			if ev.typ != EventPrevGTIDs {
				return nil, &ErrCorrupt{File: name, Offset: pos, Reason: "missing previous gtids"}
			}
			if len(l.files) == 0 {
				prev, err := gtid.ParseSet(string(ev.body))
				if err != nil {
					return nil, &ErrCorrupt{File: name, Offset: pos, Reason: "bad previous gtids: " + err.Error()}
				}
				l.gtids.Union(prev)
			}
		}
		pos += int64(n)
	}
	// Optional third header event: the snapshot anchor.
	if ev, n, err := decodeEvent(data[pos:]); err == nil && ev != nil && ev.typ == EventSnapshotAnchor {
		op, err := decodeAnchorBody(ev.body)
		if err != nil {
			return nil, &ErrCorrupt{File: name, Offset: pos, Reason: err.Error()}
		}
		if l.anchor.Less(op) {
			l.anchor = op
		}
		pos += int64(n)
	}
	lf.size = pos
	for {
		entry, n, err := readEntryAt(data, pos, name)
		if err == nil && entry != nil && lf.firstIndex != 0 && entry.OpID.Index != lf.lastIndex+1 {
			err = &ErrCorrupt{Reason: "entry index out of sequence"}
		}
		if err != nil || entry == nil {
			damaged = &ErrCorrupt{File: name, Offset: pos, Reason: "truncated record",
				Index: max(l.lastOpID.Index, l.anchor.Index) + 1}
			var ce *ErrCorrupt
			if errors.As(err, &ce) {
				damaged.Reason = ce.Reason
			}
			break
		}
		lf.push(entry.OpID.Index, n)
		if l.firstIndex == 0 {
			l.firstIndex = entry.OpID.Index
		}
		l.lastOpID = entry.OpID
		if entry.HasGTID {
			l.gtids.Add(entry.GTID)
		}
		pos += n
	}
	l.files = append(l.files, lf)
	if pos == int64(len(data)) {
		return nil, nil
	}
	if next := nextEntryAfter(data, pos); next >= 0 {
		damaged.Reason += fmt.Sprintf(", followed by an entry at offset %d", next)
		return nil, damaged
	}
	return damaged, nil
}

// nextEntryAfter returns the offset of the first decodable entry that
// starts after pos, or -1 when none does.
func nextEntryAfter(data []byte, pos int64) int64 {
	for p := pos + 1; p+eventHeaderLen <= int64(len(data)); p++ {
		// An entry opens with a flag-less GTID event; skip the rest cheaply.
		if data[p] != byte(EventGTID) || data[p+1] != 0 || data[p+2] != 0 {
			continue
		}
		if e, _, err := readEntryAt(data, p, ""); err == nil && e != nil {
			return p
		}
	}
	return -1
}

// readEntryAt decodes the full entry starting at pos. It returns the entry
// and its encoded length, (nil, 0, nil) on a clean end-of-data, and an
// error on corruption. It accepts exactly what appendEntry writes — zero
// event flags, 64 KiB row chunks, an Xid naming the entry's index — so a
// successful decode re-encodes to the same bytes.
func readEntryAt(data []byte, pos int64, fileName string) (*Entry, int64, error) {
	start := pos
	ev, n, err := decodeEvent(data[pos:])
	if err != nil {
		return nil, 0, &ErrCorrupt{File: fileName, Offset: pos, Reason: err.Error()}
	}
	if ev == nil {
		return nil, 0, nil
	}
	if ev.typ != EventGTID || ev.flags != 0 {
		return nil, 0, &ErrCorrupt{File: fileName, Offset: pos, Reason: "expected GTID event, got " + ev.typ.String()}
	}
	hdr, err := decodeGTIDEventBody(ev.body)
	if err != nil {
		return nil, 0, &ErrCorrupt{File: fileName, Offset: pos, Reason: err.Error()}
	}
	if hdr.eventsToXid != (hdr.payloadLen+rowChunkSize-1)/rowChunkSize {
		return nil, 0, &ErrCorrupt{File: fileName, Offset: pos, Reason: "rows event count does not match payload length"}
	}
	pos += int64(n)
	if int64(hdr.payloadLen) > int64(len(data))-pos {
		return nil, 0, nil // the payload cannot fit: a torn tail
	}
	payload := make([]byte, 0, hdr.payloadLen)
	for i := uint32(0); i < hdr.eventsToXid; i++ {
		ev, n, err = decodeEvent(data[pos:])
		if err != nil {
			return nil, 0, &ErrCorrupt{File: fileName, Offset: pos, Reason: err.Error()}
		}
		if ev == nil {
			return nil, 0, nil
		}
		if ev.typ != EventRows || ev.flags != 0 || len(ev.body) != min(rowChunkSize, int(hdr.payloadLen)-len(payload)) {
			return nil, 0, &ErrCorrupt{File: fileName, Offset: pos, Reason: "expected Rows event"}
		}
		payload = append(payload, ev.body...)
		pos += int64(n)
	}
	ev, n, err = decodeEvent(data[pos:])
	if err != nil {
		return nil, 0, &ErrCorrupt{File: fileName, Offset: pos, Reason: err.Error()}
	}
	if ev == nil {
		return nil, 0, nil
	}
	if ev.typ != EventXid || ev.flags != 0 || len(ev.body) != 8 || binary.BigEndian.Uint64(ev.body) != hdr.op.Index {
		return nil, 0, &ErrCorrupt{File: fileName, Offset: pos, Reason: "expected Xid event"}
	}
	pos += int64(n)
	e := &Entry{
		OpID:    hdr.op,
		Type:    hdr.entryType,
		HasGTID: hdr.hasGTID,
		Payload: payload,
	}
	if hdr.hasGTID {
		e.GTID = hdr.g
	}
	if uint32(len(payload)) != hdr.payloadLen || e.Checksum() != hdr.payloadSum {
		return nil, 0, &ErrCorrupt{File: fileName, Offset: start, Reason: "payload checksum mismatch"}
	}
	return e, pos - start, nil
}

func fileSeq(name string) (int, bool) {
	i := strings.LastIndexByte(name, '.')
	if i < 0 {
		return 0, false
	}
	var seq int
	if _, err := fmt.Sscanf(name[i+1:], "%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// createFileLocked opens a fresh file under the current persona and writes
// its header (magic, format description, previous GTIDs).
func (l *Log) createFileLocked() error {
	name := fmt.Sprintf("%s.%06d", l.persona.Prefix(), l.seq)
	l.seq++
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("binlog: create %s: %w", name, err)
	}
	hdr := append([]byte(nil), magic...)
	fd := make([]byte, 0, 3)
	fd = append(fd, byte(formatVersion>>8), byte(formatVersion), byte(l.persona))
	hdr = (&event{typ: EventFormatDesc, body: fd}).appendTo(hdr)
	hdr = (&event{typ: EventPrevGTIDs, body: []byte(l.gtids.String())}).appendTo(hdr)
	if !l.anchor.IsZero() {
		hdr = (&event{typ: EventSnapshotAnchor, body: encodeAnchorBody(l.anchor)}).appendTo(hdr)
	}
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("binlog: write header: %w", err)
	}
	lf := &logFile{name: name, size: int64(len(hdr))}
	if l.f != nil {
		if err := l.flushLocked(); err != nil {
			return err
		}
		l.f.Close()
	}
	l.files = append(l.files, lf)
	l.active = lf
	l.f = f
	l.w = bufio.NewWriter(f)
	// The fresh header has not been fsynced; the next Sync must hit disk.
	l.dirty = true
	return l.writeIndexFileLocked()
}

// Append writes one entry at the tail. The entry's index must be exactly
// lastIndex+1 (or anything for the first entry of an empty log, supporting
// a follower joining mid-stream). Appending an EntryRotate rotates the
// file after the entry is written, which is how replicated FLUSH BINARY
// LOGS keeps files aligned across the ring (§A.1).
//
// A log entry's payload is immutable once appended: the in-memory tail
// keeps e.Payload itself (not a copy) and hands it to readers, so neither
// the caller nor any reader may modify it afterwards. Append copies the
// rest of *e and does not retain e.
func (l *Log) Append(e *Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return fmt.Errorf("binlog: log closed")
	}
	if l.lastOpID.Index != 0 && e.OpID.Index != l.lastOpID.Index+1 {
		return fmt.Errorf("%w: index %d after tail %d", ErrOutOfOrder, e.OpID.Index, l.lastOpID.Index)
	}
	if e.OpID.Term < l.lastOpID.Term {
		return fmt.Errorf("%w: term %d below tail term %d", ErrOutOfOrder, e.OpID.Term, l.lastOpID.Term)
	}
	// The writer copies buf out, so one scratch buffer serves every append.
	buf := appendEntry(l.enc[:0], e)
	if cap(buf) <= maxRetainedEncode {
		l.enc = buf
	}
	if _, err := l.w.Write(buf); err != nil {
		return fmt.Errorf("binlog: append: %w", err)
	}
	l.dirty = true
	l.unsynced += int64(len(buf))
	l.statAppends++
	l.statAppendBytes += int64(len(buf))
	l.active.push(e.OpID.Index, int64(len(buf)))
	if l.firstIndex == 0 {
		l.firstIndex = e.OpID.Index
	}
	l.lastOpID = e.OpID
	if e.HasGTID {
		l.gtids.Add(e.GTID)
	}
	l.tail.push(e)
	if e.Type == EntryRotate {
		return l.createFileLocked()
	}
	return nil
}

func (l *Log) flushLocked() error {
	if l.w == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("binlog: flush: %w", err)
	}
	return nil
}

func (l *Log) syncLocked() error {
	if l.f == nil {
		return fmt.Errorf("binlog: log closed")
	}
	if !l.dirty {
		// Nothing written since the last fsync: group commit coalesces
		// redundant Sync calls into a no-op instead of a disk flush.
		l.statNoopSyncs++
		return nil
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("binlog: sync: %w", err)
	}
	l.statSyncs++
	l.dirty = false
	l.unsynced = 0
	return nil
}

// Sync flushes buffered appends and fsyncs the active file. The commit
// pipeline calls this once per commit group.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// Rotate forces a file rotation without a replicated rotate entry. It is
// used for local maintenance (e.g. persona rewiring during promotion).
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.createFileLocked()
}

// SetPersona changes the naming persona for files created from now on and
// rotates so the active file matches. This is the "rewiring" step of the
// promotion/demotion orchestration (§3.3).
func (l *Log) SetPersona(p Persona) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.persona == p {
		return nil
	}
	l.persona = p
	return l.createFileLocked()
}

// Persona returns the current naming persona.
func (l *Log) Persona() Persona {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.persona
}

// Entry returns the entry at index. An entry still in the in-memory tail
// is returned from memory, sharing its payload (see Append) and without
// re-verifying the file; anything older is read from disk with its
// checksums verified. The disk read is the historical path the leader
// uses when a lagging follower needs entries that have fallen out of the
// in-memory caches (§3.1), and the one a reopened Log starts on.
func (l *Log) Entry(index uint64) (*Entry, error) {
	l.mu.Lock()
	if e, ok := l.tail.get(index); ok {
		l.mu.Unlock()
		return e, nil
	}
	l.statFileReads++
	loc, ok := l.locateLocked(index)
	if !ok {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: index %d", ErrNotFound, index)
	}
	if loc.file == l.active {
		if err := l.flushLocked(); err != nil {
			l.mu.Unlock()
			return nil, err
		}
	}
	dir := l.dir
	l.mu.Unlock()

	e, err := readEntryFile(dir, loc)
	if err != nil {
		return nil, err
	}
	if e.OpID.Index != index {
		return nil, &ErrCorrupt{File: loc.file.name, Offset: loc.offset, Reason: "index mismatch"}
	}
	return e, nil
}

// Entries returns the contiguous range [from, to]. A range wholly inside
// the in-memory tail is copied out of it with two allocations whatever its
// length; otherwise the range is read with one open and one read per
// spanned file (Entry's open-per-index cost would serialize a batch
// consumer like the parallel applier behind file I/O).
func (l *Log) Entries(from, to uint64) ([]*Entry, error) {
	if to < from {
		return nil, nil
	}
	l.mu.Lock()
	if l.tail.holds(from, to) {
		vals := make([]Entry, 0, to-from+1)
		for i := from; i <= to; i++ {
			vals = append(vals, l.tail.at(i))
		}
		l.mu.Unlock()
		out := make([]*Entry, len(vals))
		for i := range vals {
			out[i] = &vals[i]
		}
		return out, nil
	}
	l.statFileReads++
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return nil, err
	}
	// One contiguous byte span per file: entries are laid out back to
	// back within a file.
	type span struct {
		name   string
		offset int64
		length int64
		count  int
	}
	var spans []span
	for idx := from; idx <= to; {
		loc, ok := l.locateLocked(idx)
		if !ok {
			l.mu.Unlock()
			return nil, fmt.Errorf("%w: index %d", ErrNotFound, idx)
		}
		last := min(to, loc.file.lastIndex)
		spans = append(spans, span{name: loc.file.name, offset: loc.offset,
			length: loc.file.end(last) - loc.offset, count: int(last - idx + 1)})
		idx = last + 1
	}
	dir := l.dir
	l.mu.Unlock()

	entries := make([]*Entry, 0, to-from+1)
	for _, sp := range spans {
		data := make([]byte, sp.length)
		f, err := os.Open(filepath.Join(dir, sp.name))
		if err != nil {
			return nil, fmt.Errorf("binlog: open %s: %w", sp.name, err)
		}
		_, err = f.ReadAt(data, sp.offset)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("binlog: read span %s: %w", sp.name, err)
		}
		pos := int64(0)
		for i := 0; i < sp.count; i++ {
			e, n, err := readEntryAt(data, pos, sp.name)
			if err != nil {
				return nil, err
			}
			if e == nil {
				return nil, &ErrCorrupt{File: sp.name, Offset: sp.offset + pos, Reason: "short entry in span"}
			}
			entries = append(entries, e)
			pos += n
		}
	}
	if want := to - from + 1; uint64(len(entries)) != want || entries[0].OpID.Index != from {
		return nil, fmt.Errorf("binlog: range [%d,%d] resolved to %d entries", from, to, len(entries))
	}
	return entries, nil
}

// Scan calls fn for each entry with index >= from, in order, until fn
// returns false or the tail is reached. Files are read sequentially (one
// read per file, not per entry), so scanning a recovered log is cheap
// even for large histories.
func (l *Log) Scan(from uint64, fn func(*Entry) bool) error {
	l.mu.Lock()
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	type fileRange struct {
		name        string
		first, last uint64
	}
	var files []fileRange
	for _, f := range l.files {
		if f.firstIndex == 0 || f.lastIndex < from {
			continue
		}
		files = append(files, fileRange{name: f.name, first: f.firstIndex, last: f.lastIndex})
	}
	lastIndex := l.lastOpID.Index
	dir := l.dir
	l.mu.Unlock()

	for _, fr := range files {
		data, err := os.ReadFile(filepath.Join(dir, fr.name))
		if err != nil {
			return fmt.Errorf("binlog: scan %s: %w", fr.name, err)
		}
		pos := int64(len(magic))
		for i := 0; i < 2; i++ { // skip header events
			ev, n, err := decodeEvent(data[pos:])
			if err != nil || ev == nil {
				return &ErrCorrupt{File: fr.name, Offset: pos, Reason: "bad header during scan"}
			}
			pos += int64(n)
		}
		// Skip the optional snapshot-anchor header event.
		if ev, n, err := decodeEvent(data[pos:]); err == nil && ev != nil && ev.typ == EventSnapshotAnchor {
			pos += int64(n)
		}
		for {
			e, n, err := readEntryAt(data, pos, fr.name)
			if err != nil {
				return err
			}
			if e == nil {
				break
			}
			pos += n
			if e.OpID.Index < from {
				continue
			}
			if e.OpID.Index > lastIndex {
				return nil
			}
			if !fn(e) {
				return nil
			}
		}
	}
	return nil
}

// TruncateAfter removes every entry with index > index and returns the
// removed entries (newest last) so the caller can unwind GTID metadata,
// implementing demotion step 4 of §3.3. Truncating to 0 empties the log.
func (l *Log) TruncateAfter(index uint64) ([]*Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index >= l.lastOpID.Index {
		return nil, nil
	}
	if err := l.flushLocked(); err != nil {
		return nil, err
	}
	var removed []*Entry
	for idx := index + 1; idx <= l.lastOpID.Index; idx++ {
		loc, ok := l.locateLocked(idx)
		if !ok {
			continue
		}
		e, err := l.entryLocked(idx, loc)
		if err != nil {
			return nil, fmt.Errorf("binlog: truncate read %d: %w", idx, err)
		}
		removed = append(removed, e)
		if e.HasGTID {
			l.gtids.Remove(e.GTID)
		}
	}
	l.tail.truncateAfter(index)
	// Find the file that keeps the tail and drop every later file.
	keep := len(l.files) - 1
	for keep > 0 && (l.files[keep].firstIndex == 0 || l.files[keep].firstIndex > index) {
		// A header-only file (firstIndex 0) created by rotation after the
		// truncation point is also dropped, unless it is the only file.
		keep--
	}
	tail := l.files[keep]
	for _, f := range l.files[keep+1:] {
		if err := os.Remove(filepath.Join(l.dir, f.name)); err != nil {
			return nil, fmt.Errorf("binlog: remove %s: %w", f.name, err)
		}
	}
	l.files = l.files[:keep+1]

	// Shrink the tail file to end right after the last kept entry.
	newSize := tail.size
	newLast := opid.Zero
	if index >= tail.firstIndex && tail.firstIndex != 0 && index <= tail.lastIndex {
		newSize = tail.end(index)
		tail.starts = tail.starts[:index-tail.firstIndex+1]
		tail.lastIndex = index
	} else if tail.firstIndex == 0 || index < tail.firstIndex {
		// Everything in the tail file goes; cut back to its header, whose
		// previous-GTIDs set is the (already unwound) executed set.
		tail.firstIndex, tail.lastIndex, tail.starts = 0, 0, nil
		newSize = headerSize(l.gtidsBeforeFileLocked(tail), l.anchor)
	}
	if loc, ok := l.locateLocked(index); ok {
		e, err := l.entryLocked(index, loc)
		if err != nil {
			return nil, err
		}
		newLast = e.OpID
	}
	if newLast.Index < l.anchor.Index {
		// Truncating down to (or below) the snapshot anchor: the anchor is
		// the floor the tail can never drop under.
		newLast = l.anchor
	}
	if l.f != nil {
		l.f.Close()
	}
	f, err := os.OpenFile(filepath.Join(l.dir, tail.name), os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("binlog: reopen tail: %w", err)
	}
	if err := f.Truncate(newSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("binlog: shrink tail: %w", err)
	}
	if _, err := f.Seek(newSize, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("binlog: seek tail: %w", err)
	}
	tail.size = newSize
	l.active = tail
	l.f = f
	l.w = bufio.NewWriter(f)
	l.dirty = true // truncation metadata must reach disk on the next Sync
	l.lastOpID = newLast
	if index < l.firstIndex {
		// Every live entry was removed (truncate to 0, or back to the
		// snapshot anchor): the log is empty again.
		l.firstIndex = 0
	}
	return removed, l.writeIndexFileLocked()
}

// entryLocked returns the entry at index, located at loc: from the tail
// when it holds index, from the file otherwise. mu must be held and the
// writer flushed.
func (l *Log) entryLocked(index uint64, loc entryLoc) (*Entry, error) {
	if e, ok := l.tail.get(index); ok {
		return e, nil
	}
	return readEntryFile(l.dir, loc)
}

// readEntryFile reads and decodes the entry at loc from its file in dir.
// Entries in the active file must have been flushed out of the writer.
func readEntryFile(dir string, loc entryLoc) (*Entry, error) {
	data := make([]byte, loc.length)
	f, err := os.Open(filepath.Join(dir, loc.file.name))
	if err != nil {
		return nil, fmt.Errorf("binlog: open %s: %w", loc.file.name, err)
	}
	defer f.Close()
	if _, err := f.ReadAt(data, loc.offset); err != nil {
		return nil, fmt.Errorf("binlog: read %s at %d: %w", loc.file.name, loc.offset, err)
	}
	e, _, err := readEntryAt(data, 0, loc.file.name)
	if err != nil {
		return nil, err
	}
	if e == nil {
		return nil, &ErrCorrupt{File: loc.file.name, Offset: loc.offset, Reason: "short entry"}
	}
	return e, nil
}

// gtidsBeforeFileLocked reconstructs the previous-GTIDs set that was (or
// would be) written into the header of lf.
func (l *Log) gtidsBeforeFileLocked(lf *logFile) *gtid.Set {
	s := l.gtids.Clone()
	// Remove GTIDs of entries at or after lf's first entry.
	if lf.firstIndex != 0 {
		for idx := lf.firstIndex; idx <= l.lastOpID.Index; idx++ {
			if loc, ok := l.locateLocked(idx); ok {
				if e, err := l.entryLocked(idx, loc); err == nil && e.HasGTID {
					s.Remove(e.GTID)
				}
			}
		}
	}
	return s
}

// headerSize returns the size of a file header carrying the given
// previous-GTIDs set (and, when anchor is non-zero, a snapshot-anchor
// event).
func headerSize(prev *gtid.Set, anchor opid.OpID) int64 {
	n := int64(len(magic))
	n += int64((&event{typ: EventFormatDesc, body: make([]byte, 3)}).encodedLen())
	n += int64((&event{typ: EventPrevGTIDs, body: []byte(prev.String())}).encodedLen())
	if !anchor.IsZero() {
		n += int64((&event{typ: EventSnapshotAnchor, body: make([]byte, 16)}).encodedLen())
	}
	return n
}

// ResetTo discards every file and entry and re-creates the log as the
// suffix of a snapshot installed at op: the new (empty) log is anchored
// at op, the executed-GTID set becomes gtids, and the next Append must
// carry index op.Index+1. This is the binlog half of a snapshot install
// (§A.1): the purged prefix is not replayed, it is replaced. The reset
// is synced to disk before returning.
func (l *Log) ResetTo(op opid.OpID, gtids *gtid.Set) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return fmt.Errorf("binlog: log closed")
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	l.f.Close()
	l.f = nil
	l.w = nil
	old := l.files
	l.files = nil
	l.active = nil
	l.tail.reset()
	l.firstIndex = 0
	l.lastOpID = op
	l.anchor = op
	if gtids != nil {
		l.gtids = gtids.Clone()
	} else {
		l.gtids = gtid.NewSet()
	}
	for _, f := range old {
		if err := os.Remove(filepath.Join(l.dir, f.name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("binlog: reset remove %s: %w", f.name, err)
		}
	}
	if err := l.createFileLocked(); err != nil {
		return err
	}
	return l.syncLocked()
}

// Anchor returns the snapshot anchor the log was last reset to, or
// opid.Zero when the log has never installed a snapshot.
func (l *Log) Anchor() opid.OpID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.anchor
}

// PurgeTo deletes whole files whose entries all precede index. The active
// file is never purged. This implements PURGE BINARY LOGS; Raft-side
// watermark heuristics decide the index (§A.1).
func (l *Log) PurgeTo(index uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	cut := 0
	for cut < len(l.files)-1 {
		f := l.files[cut]
		if f.lastIndex == 0 || f.lastIndex >= index {
			break
		}
		cut++
	}
	if cut == 0 {
		return nil
	}
	// Files hold ascending index runs, so the last purged file's tail
	// bounds everything purged.
	l.tail.dropBelow(l.files[cut-1].lastIndex + 1)
	for _, f := range l.files[:cut] {
		if err := os.Remove(filepath.Join(l.dir, f.name)); err != nil {
			return fmt.Errorf("binlog: purge %s: %w", f.name, err)
		}
	}
	l.files = append([]*logFile(nil), l.files[cut:]...)
	// The oldest surviving file may be header-only (a rotation with no
	// entries after it), so the first entry is in the first non-empty one,
	// as recovery finds it.
	l.firstIndex = 0
	for _, f := range l.files {
		if f.firstIndex != 0 {
			l.firstIndex = f.firstIndex
			break
		}
	}
	return l.writeIndexFileLocked()
}

// Files lists the current log files oldest-first (SHOW BINARY LOGS).
func (l *Log) Files() []FileInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]FileInfo, len(l.files))
	for i, f := range l.files {
		out[i] = FileInfo{Name: f.name, FirstIndex: f.firstIndex, LastIndex: f.lastIndex, Size: f.size}
	}
	return out
}

// UnsyncedBytes returns how many appended bytes have not yet been
// covered by a successful Sync. The async durability pipeline uses this
// for backpressure accounting and tests use it to verify coalescing.
func (l *Log) UnsyncedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.unsynced
}

// LastOpID returns the OpID of the tail entry, or opid.Zero when empty.
func (l *Log) LastOpID() opid.OpID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastOpID
}

// FirstIndex returns the lowest entry index still on disk, or 0 when the
// log holds no entries.
func (l *Log) FirstIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstIndex
}

// GTIDSet returns a copy of the executed-GTID set of the log (including
// purged files, matching MySQL's gtid_executed semantics).
func (l *Log) GTIDSet() *gtid.Set {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gtids.Clone()
}

// NextGTID returns the sequence number after the highest one the executed
// set holds for u, without copying the set.
func (l *Log) NextGTID(u gtid.UUID) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gtids.NextID(u)
}

// Crash simulates a process crash: the active file is closed without
// flushing the write buffer, so recently appended entries that were never
// synced are torn off, exactly the torn-tail situation Open recovers from
// (§A.2 case 1). The in-memory tail goes with the process: nothing can
// read back an entry the crash tore off.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tail.reset()
	if l.f != nil {
		l.f.Close() // deliberately skip the buffered-writer flush
		l.f = nil
		l.w = nil
	}
}

// Close flushes and closes the active file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f = nil
	l.w = nil
	return err
}

// Checksum returns a CRC-32C over the logical entry stream (OpIDs, types
// and payloads) starting at from. The shadow tester compares this value
// across members to verify the log-equality invariant.
func (l *Log) Checksum(from uint64) (uint32, error) {
	var sum uint32
	err := l.Scan(from, func(e *Entry) bool {
		var hdr [17]byte
		hdr[0] = byte(e.Type)
		be := hdr[1:]
		putUint64(be, e.OpID.Term)
		putUint64(be[8:], e.OpID.Index)
		sum = crc32Update(sum, hdr[:])
		sum = crc32Update(sum, e.Payload)
		return true
	})
	return sum, err
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

func crc32Update(sum uint32, data []byte) uint32 {
	return crc32.Update(sum, castagnoli, data)
}
