// Package gtid implements MySQL Global Transaction Identifiers and GTID
// sets as described in the MySQL replication documentation and relied on
// by the paper (§3): every transaction in MyRaft carries both a GTID
// (assigned by MySQL at commit time) and an OpID (assigned by Raft).
//
// A GTID is "source_uuid:transaction_id". A GTID set is a map from source
// UUID to a sorted list of disjoint, closed intervals, rendered as
// "uuid:1-5:7:9-11,uuid2:1-3". The demotion orchestration (§3.3 step 4)
// removes truncated transactions from GTID metadata, which requires full
// interval subtraction; log purge headers require union and containment.
package gtid

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// UUID identifies a transaction source (a server that was primary when the
// transaction committed). MySQL uses RFC 4122 text form; any non-empty
// string without the separator characters ':' and ',' is accepted here.
type UUID string

// valid reports whether the UUID is usable inside a GTID set rendering.
// The separators ':' and ',' are reserved by the text form; '-' is fine
// because intervals are only parsed after splitting on ':'.
func (u UUID) valid() bool {
	return len(u) > 0 && !strings.ContainsAny(string(u), ":, \t\n")
}

// GTID is a single global transaction identifier.
type GTID struct {
	Source UUID
	ID     int64 // transaction sequence number, starting at 1
}

// String renders "source:id".
func (g GTID) String() string { return fmt.Sprintf("%s:%d", g.Source, g.ID) }

// ParseGTID parses "source:id".
func ParseGTID(s string) (GTID, error) {
	i := strings.LastIndexByte(s, ':')
	if i <= 0 || i == len(s)-1 {
		return GTID{}, fmt.Errorf("gtid: malformed %q", s)
	}
	id, err := strconv.ParseInt(s[i+1:], 10, 64)
	if err != nil || id < 1 {
		return GTID{}, fmt.Errorf("gtid: bad transaction id in %q", s)
	}
	u := UUID(s[:i])
	if !u.valid() {
		return GTID{}, fmt.Errorf("gtid: bad source uuid in %q", s)
	}
	return GTID{Source: u, ID: id}, nil
}

// Interval is a closed range [First, Last] of transaction IDs.
type Interval struct {
	First, Last int64
}

func (iv Interval) contains(id int64) bool { return id >= iv.First && id <= iv.Last }

// Set is a GTID set: for each source UUID, a normalized (sorted, disjoint,
// non-adjacent) list of intervals. The zero value is an empty set. Set is
// not safe for concurrent mutation; callers synchronize externally.
type Set struct {
	intervals map[UUID][]Interval
}

// NewSet returns an empty GTID set.
func NewSet() *Set { return &Set{intervals: make(map[UUID][]Interval)} }

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := NewSet()
	for u, ivs := range s.intervals {
		c.intervals[u] = append([]Interval(nil), ivs...)
	}
	return c
}

// Add inserts one GTID into the set.
func (s *Set) Add(g GTID) {
	s.AddInterval(g.Source, Interval{g.ID, g.ID})
}

// AddInterval inserts the interval [iv.First, iv.Last] for the source,
// merging with existing intervals. Empty or inverted intervals are ignored.
func (s *Set) AddInterval(u UUID, iv Interval) {
	if iv.First < 1 || iv.Last < iv.First {
		return
	}
	if s.intervals == nil {
		s.intervals = make(map[UUID][]Interval)
	}
	ivs := s.intervals[u]
	// Append fast path: a primary's GTIDs arrive in order, so iv almost
	// always overlaps or touches the last interval, which can grow in
	// place. The slice is never handed out (Clone deep-copies), so no
	// reader can see the write.
	if n := len(ivs); n > 0 && iv.First >= ivs[n-1].First && iv.First <= ivs[n-1].Last+1 {
		ivs[n-1].Last = max(ivs[n-1].Last, iv.Last)
		return
	}
	s.intervals[u] = mergeInto(ivs, iv)
}

// mergeInto inserts iv into the normalized list and re-normalizes.
func mergeInto(ivs []Interval, iv Interval) []Interval {
	out := make([]Interval, 0, len(ivs)+1)
	placed := false
	for _, e := range ivs {
		switch {
		case e.Last+1 < iv.First: // e strictly before iv, not adjacent
			out = append(out, e)
		case iv.Last+1 < e.First: // e strictly after iv
			if !placed {
				out = append(out, iv)
				placed = true
			}
			out = append(out, e)
		default: // overlap or adjacency: absorb e into iv
			if e.First < iv.First {
				iv.First = e.First
			}
			if e.Last > iv.Last {
				iv.Last = e.Last
			}
		}
	}
	if !placed {
		out = append(out, iv)
	}
	return out
}

// Contains reports whether the set includes the GTID.
func (s *Set) Contains(g GTID) bool {
	if s == nil || s.intervals == nil {
		return false
	}
	for _, iv := range s.intervals[g.Source] {
		if iv.contains(g.ID) {
			return true
		}
	}
	return false
}

// ContainsSet reports whether every GTID in other is also in s.
func (s *Set) ContainsSet(other *Set) bool {
	if other == nil {
		return true
	}
	for u, oivs := range other.intervals {
		sivs := s.intervalsFor(u)
		for _, oiv := range oivs {
			if !covered(sivs, oiv) {
				return false
			}
		}
	}
	return true
}

func (s *Set) intervalsFor(u UUID) []Interval {
	if s == nil || s.intervals == nil {
		return nil
	}
	return s.intervals[u]
}

// covered reports whether target is fully inside the normalized list.
func covered(ivs []Interval, target Interval) bool {
	for _, iv := range ivs {
		if iv.First <= target.First && target.Last <= iv.Last {
			return true
		}
	}
	return false
}

// Union merges other into s.
func (s *Set) Union(other *Set) {
	if other == nil {
		return
	}
	for u, ivs := range other.intervals {
		for _, iv := range ivs {
			s.AddInterval(u, iv)
		}
	}
}

// Remove deletes one GTID from the set, splitting an interval if needed.
// This is the primitive behind truncation: when Raft truncates
// not-consensus-committed transactions, their GTIDs are removed from all
// GTID metadata (§3.3 demotion step 4).
func (s *Set) Remove(g GTID) {
	ivs := s.intervalsFor(g.Source)
	out := make([]Interval, 0, len(ivs)+1)
	for _, iv := range ivs {
		if !iv.contains(g.ID) {
			out = append(out, iv)
			continue
		}
		if iv.First < g.ID {
			out = append(out, Interval{iv.First, g.ID - 1})
		}
		if g.ID < iv.Last {
			out = append(out, Interval{g.ID + 1, iv.Last})
		}
	}
	if len(out) == 0 {
		delete(s.intervals, g.Source)
	} else {
		s.intervals[g.Source] = out
	}
}

// Subtract removes every GTID in other from s.
func (s *Set) Subtract(other *Set) {
	if other == nil {
		return
	}
	for u, oivs := range other.intervals {
		ivs := s.intervalsFor(u)
		if len(ivs) == 0 {
			continue
		}
		for _, oiv := range oivs {
			ivs = subtractInterval(ivs, oiv)
		}
		if len(ivs) == 0 {
			delete(s.intervals, u)
		} else {
			s.intervals[u] = ivs
		}
	}
}

func subtractInterval(ivs []Interval, cut Interval) []Interval {
	out := make([]Interval, 0, len(ivs)+1)
	for _, iv := range ivs {
		if cut.Last < iv.First || iv.Last < cut.First {
			out = append(out, iv) // disjoint
			continue
		}
		if iv.First < cut.First {
			out = append(out, Interval{iv.First, cut.First - 1})
		}
		if cut.Last < iv.Last {
			out = append(out, Interval{cut.Last + 1, iv.Last})
		}
	}
	return out
}

// Equal reports whether two sets contain exactly the same GTIDs.
func (s *Set) Equal(other *Set) bool {
	return s.ContainsSet(other) && other.ContainsSet(s)
}

// IsEmpty reports whether the set has no GTIDs.
func (s *Set) IsEmpty() bool {
	if s == nil {
		return true
	}
	for _, ivs := range s.intervals {
		if len(ivs) > 0 {
			return false
		}
	}
	return true
}

// Count returns the total number of GTIDs in the set.
func (s *Set) Count() int64 {
	var n int64
	if s == nil {
		return 0
	}
	for _, ivs := range s.intervals {
		for _, iv := range ivs {
			n += iv.Last - iv.First + 1
		}
	}
	return n
}

// Sources returns the source UUIDs present in the set, sorted.
func (s *Set) Sources() []UUID {
	us := make([]UUID, 0, len(s.intervals))
	for u := range s.intervals {
		us = append(us, u)
	}
	sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
	return us
}

// NextID returns the next unused transaction ID for the source: one past
// the highest ID present, or 1 when the source is absent. MySQL primaries
// use this to assign GTIDs at commit time.
func (s *Set) NextID(u UUID) int64 {
	ivs := s.intervalsFor(u)
	if len(ivs) == 0 {
		return 1
	}
	return ivs[len(ivs)-1].Last + 1
}

// String renders the canonical MySQL text form: sources sorted,
// "uuid:1-5:7,uuid2:2". The empty set renders as "".
func (s *Set) String() string {
	if s.IsEmpty() {
		return ""
	}
	var b strings.Builder
	for i, u := range s.Sources() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(u))
		for _, iv := range s.intervals[u] {
			b.WriteByte(':')
			if iv.First == iv.Last {
				fmt.Fprintf(&b, "%d", iv.First)
			} else {
				fmt.Fprintf(&b, "%d-%d", iv.First, iv.Last)
			}
		}
	}
	return b.String()
}

// ParseSet parses the canonical text form produced by String. The empty
// string parses to an empty set.
func ParseSet(text string) (*Set, error) {
	s := NewSet()
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, part := range strings.Split(text, ",") {
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("gtid: malformed set element %q", part)
		}
		u := UUID(strings.TrimSpace(fields[0]))
		if !u.valid() {
			return nil, fmt.Errorf("gtid: bad uuid %q", fields[0])
		}
		for _, r := range fields[1:] {
			iv, err := parseInterval(r)
			if err != nil {
				return nil, err
			}
			s.AddInterval(u, iv)
		}
	}
	return s, nil
}

func parseInterval(r string) (Interval, error) {
	lo, hi, found := strings.Cut(r, "-")
	first, err := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
	if err != nil || first < 1 {
		return Interval{}, fmt.Errorf("gtid: bad interval %q", r)
	}
	last := first
	if found {
		last, err = strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
		if err != nil || last < first {
			return Interval{}, fmt.Errorf("gtid: bad interval %q", r)
		}
	}
	return Interval{first, last}, nil
}
