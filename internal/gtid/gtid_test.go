package gtid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseGTID(t *testing.T) {
	g, err := ParseGTID("server-a:42")
	if err != nil {
		t.Fatal(err)
	}
	if g.Source != "server-a" || g.ID != 42 {
		t.Fatalf("got %+v", g)
	}
	if g.String() != "server-a:42" {
		t.Fatalf("String = %q", g.String())
	}
}

func TestParseGTIDErrors(t *testing.T) {
	for _, bad := range []string{"", "abc", ":5", "abc:", "abc:0", "abc:-1", "abc:x", "a,b:3"} {
		if _, err := ParseGTID(bad); err == nil {
			t.Errorf("ParseGTID(%q) succeeded, want error", bad)
		}
	}
}

func TestSetAddAndContains(t *testing.T) {
	s := NewSet()
	s.Add(GTID{"u1", 1})
	s.Add(GTID{"u1", 3})
	if !s.Contains(GTID{"u1", 1}) || s.Contains(GTID{"u1", 2}) || !s.Contains(GTID{"u1", 3}) {
		t.Fatalf("membership wrong: %s", s)
	}
	if s.Contains(GTID{"u2", 1}) {
		t.Fatal("unknown source should not be contained")
	}
}

func TestSetMergeAdjacent(t *testing.T) {
	s := NewSet()
	s.Add(GTID{"u", 1})
	s.Add(GTID{"u", 2})
	s.Add(GTID{"u", 3})
	if s.String() != "u:1-3" {
		t.Fatalf("String = %q, want u:1-3", s.String())
	}
}

func TestSetMergeBridging(t *testing.T) {
	s := NewSet()
	s.AddInterval("u", Interval{1, 3})
	s.AddInterval("u", Interval{5, 7})
	s.Add(GTID{"u", 4})
	if s.String() != "u:1-7" {
		t.Fatalf("String = %q, want u:1-7", s.String())
	}
}

func TestSetAddIntervalIgnoresInvalid(t *testing.T) {
	s := NewSet()
	s.AddInterval("u", Interval{0, 5})
	s.AddInterval("u", Interval{5, 2})
	if !s.IsEmpty() {
		t.Fatalf("invalid intervals accepted: %s", s)
	}
}

func TestSetStringAndParseRoundTrip(t *testing.T) {
	s := NewSet()
	s.AddInterval("aaaa", Interval{1, 5})
	s.Add(GTID{"aaaa", 7})
	s.AddInterval("bbbb", Interval{2, 2})
	text := s.String()
	if text != "aaaa:1-5:7,bbbb:2" {
		t.Fatalf("String = %q", text)
	}
	parsed, err := ParseSet(text)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(s) {
		t.Fatalf("round trip mismatch: %q vs %q", parsed, s)
	}
}

func TestParseSetEmpty(t *testing.T) {
	s, err := ParseSet("")
	if err != nil || !s.IsEmpty() {
		t.Fatalf("empty parse: %v %v", s, err)
	}
	s, err = ParseSet("   ")
	if err != nil || !s.IsEmpty() {
		t.Fatalf("whitespace parse: %v %v", s, err)
	}
}

func TestParseSetErrors(t *testing.T) {
	for _, bad := range []string{"u", "u:", "u:0", "u:5-2", "u:a-b", ":1", "u:1,,v:2"} {
		if _, err := ParseSet(bad); err == nil {
			t.Errorf("ParseSet(%q) succeeded, want error", bad)
		}
	}
}

func TestSetRemoveSplitsInterval(t *testing.T) {
	s := NewSet()
	s.AddInterval("u", Interval{1, 10})
	s.Remove(GTID{"u", 5})
	if s.String() != "u:1-4:6-10" {
		t.Fatalf("String = %q", s.String())
	}
	if s.Contains(GTID{"u", 5}) {
		t.Fatal("removed GTID still present")
	}
}

func TestSetRemoveEdges(t *testing.T) {
	s := NewSet()
	s.AddInterval("u", Interval{3, 5})
	s.Remove(GTID{"u", 3})
	s.Remove(GTID{"u", 5})
	if s.String() != "u:4" {
		t.Fatalf("String = %q", s.String())
	}
	s.Remove(GTID{"u", 4})
	if !s.IsEmpty() {
		t.Fatalf("set not empty: %q", s.String())
	}
}

func TestSetRemoveAbsentNoop(t *testing.T) {
	s := NewSet()
	s.AddInterval("u", Interval{1, 3})
	s.Remove(GTID{"u", 9})
	s.Remove(GTID{"v", 1})
	if s.String() != "u:1-3" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSetSubtract(t *testing.T) {
	s := NewSet()
	s.AddInterval("u", Interval{1, 10})
	s.AddInterval("v", Interval{1, 3})
	o := NewSet()
	o.AddInterval("u", Interval{4, 6})
	o.AddInterval("v", Interval{1, 3})
	o.AddInterval("w", Interval{1, 5})
	s.Subtract(o)
	if s.String() != "u:1-3:7-10" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSetUnionAndContainsSet(t *testing.T) {
	a := NewSet()
	a.AddInterval("u", Interval{1, 5})
	b := NewSet()
	b.AddInterval("u", Interval{4, 8})
	b.AddInterval("v", Interval{1, 1})
	a.Union(b)
	if a.String() != "u:1-8,v:1" {
		t.Fatalf("union = %q", a.String())
	}
	if !a.ContainsSet(b) {
		t.Fatal("union should contain operand")
	}
	if b.ContainsSet(a) {
		t.Fatal("operand should not contain union")
	}
}

func TestSetCountAndNextID(t *testing.T) {
	s := NewSet()
	if s.NextID("u") != 1 {
		t.Fatalf("NextID on empty = %d", s.NextID("u"))
	}
	s.AddInterval("u", Interval{1, 5})
	s.AddInterval("u", Interval{8, 9})
	if s.Count() != 7 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.NextID("u") != 10 {
		t.Fatalf("NextID = %d", s.NextID("u"))
	}
}

func TestSetClone(t *testing.T) {
	s := NewSet()
	s.AddInterval("u", Interval{1, 5})
	c := s.Clone()
	c.Add(GTID{"u", 10})
	if s.Contains(GTID{"u", 10}) {
		t.Fatal("clone mutation leaked into original")
	}
	if !c.ContainsSet(s) {
		t.Fatal("clone missing originals")
	}
}

func TestSetEqual(t *testing.T) {
	a := NewSet()
	a.AddInterval("u", Interval{1, 3})
	b := NewSet()
	b.Add(GTID{"u", 1})
	b.Add(GTID{"u", 2})
	b.Add(GTID{"u", 3})
	if !a.Equal(b) {
		t.Fatal("sets with same members not Equal")
	}
	b.Add(GTID{"u", 4})
	if a.Equal(b) {
		t.Fatal("different sets Equal")
	}
}

// Property: adding then removing a random sequence of GTIDs leaves the set
// consistent with a reference map implementation.
func TestSetMatchesReferenceModel(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSet()
		ref := make(map[GTID]bool)
		sources := []UUID{"a", "b"}
		for _, op := range opsRaw {
			g := GTID{sources[int(op)%2], int64(rng.Intn(20)) + 1}
			if op%3 == 0 {
				s.Remove(g)
				delete(ref, g)
			} else {
				s.Add(g)
				ref[g] = true
			}
		}
		for g := range ref {
			if !s.Contains(g) {
				return false
			}
		}
		var n int64
		for src := range map[UUID]bool{"a": true, "b": true} {
			for id := int64(1); id <= 20; id++ {
				g := GTID{src, id}
				if s.Contains(g) != ref[g] {
					return false
				}
				if ref[g] {
					n++
				}
			}
		}
		return s.Count() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: String/ParseSet round-trips for arbitrary constructed sets.
func TestSetRoundTripProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		s := NewSet()
		for i, id := range ids {
			src := UUID("s" + string(rune('a'+i%3)))
			s.Add(GTID{src, int64(id)%50 + 1})
		}
		parsed, err := ParseSet(s.String())
		return err == nil && parsed.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: intervals stay normalized (sorted, disjoint, non-adjacent).
func TestSetNormalizationInvariant(t *testing.T) {
	f := func(pairs []uint16) bool {
		s := NewSet()
		for _, p := range pairs {
			first := int64(p%100) + 1
			last := first + int64(p/100)%10
			s.AddInterval("u", Interval{first, last})
		}
		ivs := s.intervalsFor("u")
		for i := 1; i < len(ivs); i++ {
			if ivs[i-1].Last+1 >= ivs[i].First {
				return false
			}
		}
		for _, iv := range ivs {
			if iv.First > iv.Last || iv.First < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestContainsOnNilSet(t *testing.T) {
	var s *Set
	if s.Contains(GTID{"u", 1}) {
		t.Fatal("nil set contains something")
	}
	if !s.IsEmpty() {
		t.Fatal("nil set not empty")
	}
	if s.Count() != 0 {
		t.Fatal("nil set count nonzero")
	}
}

// TestAddIntervalMatchesMergeInto: the in-place append fast path leaves
// every set exactly as the general merge would, over random interval
// sequences biased toward in-order arrival.
func TestAddIntervalMatchesMergeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		s := NewSet()
		var ref []Interval
		next := int64(1)
		for i := 0; i < 1+rng.Intn(40); i++ {
			var iv Interval
			switch rng.Intn(4) {
			case 0, 1: // in order: extends or touches the tail
				iv = Interval{next - int64(rng.Intn(3)), next + int64(rng.Intn(3))}
			case 2: // a gap past the tail
				iv = Interval{next + 2 + int64(rng.Intn(5)), 0}
				iv.Last = iv.First + int64(rng.Intn(4))
			default: // anywhere
				iv = Interval{1 + int64(rng.Intn(60)), 0}
				iv.Last = iv.First + int64(rng.Intn(6)) - 1
			}
			if iv.First < 1 || iv.Last < iv.First {
				continue
			}
			next = max(next, iv.Last+1)
			s.AddInterval("u", iv)
			ref = mergeInto(ref, iv)
		}
		got := s.intervals["u"]
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %v, want %v", trial, got, ref)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: %v, want %v", trial, got, ref)
			}
		}
	}
}

// TestSequentialAddAllocatesNothing pins the append fast path: a primary
// adding its own GTIDs in order grows the last interval in place.
func TestSequentialAddAllocatesNothing(t *testing.T) {
	s := NewSet()
	id := int64(0)
	add := func() {
		id++
		s.Add(GTID{Source: "uuid-mysql-0", ID: id})
	}
	if n := testing.AllocsPerRun(1000, add); n != 0 {
		t.Fatalf("sequential Add: %v allocs, want 0", n)
	}
	if got := s.String(); got != "uuid-mysql-0:1-1001" {
		t.Fatalf("set = %q", got)
	}
}

// TestCloneIsolatedFromInPlaceGrowth: growing the original's last interval
// in place must not show through a clone taken earlier.
func TestCloneIsolatedFromInPlaceGrowth(t *testing.T) {
	s := NewSet()
	s.Add(GTID{Source: "u", ID: 1})
	c := s.Clone()
	s.Add(GTID{Source: "u", ID: 2})
	if got := c.String(); got != "u:1" {
		t.Fatalf("clone = %q after the original grew", got)
	}
}
