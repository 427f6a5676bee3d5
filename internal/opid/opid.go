// Package opid defines the OpID type shared by the Raft core and the
// binlog substrate. The paper (§3) assigns every transaction an OpID — the
// Raft term and log index — alongside its MySQL GTID. OpID lives in its
// own leaf package so that both the consensus layer and the log layer can
// reference it without depending on each other.
package opid

import "fmt"

// OpID identifies a position in the replicated log: the Raft term in which
// the entry was appended and its monotonically increasing log index.
type OpID struct {
	Term  uint64
	Index uint64
}

// Zero is the OpID preceding the first entry of any log.
var Zero = OpID{}

// IsZero reports whether the OpID is the zero position.
func (o OpID) IsZero() bool { return o == Zero }

// Less orders OpIDs by (term, index). Raft's log-comparison rule ("longest
// log wins" at equal terms) is exactly this ordering.
func (o OpID) Less(other OpID) bool {
	if o.Term != other.Term {
		return o.Term < other.Term
	}
	return o.Index < other.Index
}

// AtLeast reports whether o is greater than or equal to other.
func (o OpID) AtLeast(other OpID) bool { return !o.Less(other) }

// String renders "term.index".
func (o OpID) String() string { return fmt.Sprintf("%d.%d", o.Term, o.Index) }

// MarshalText renders "term.index", the form status JSON carries.
func (o OpID) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses the "term.index" form of MarshalText.
func (o *OpID) UnmarshalText(b []byte) error {
	if _, err := fmt.Sscanf(string(b), "%d.%d", &o.Term, &o.Index); err != nil {
		return fmt.Errorf("opid: parse %q: %w", b, err)
	}
	return nil
}
