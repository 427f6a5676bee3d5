// Package storage implements the simulated MySQL storage engine used by
// this reproduction (standing in for InnoDB/MyRocks). It provides ACID
// key-value transactions with two-phase commit hooks: a transaction is
// first Prepared (a prepare marker and its row changes go to the engine
// write-ahead log, row locks are held), and only after the replication
// layer reaches consensus is it Committed to the engine (§3.4 of the
// paper). Crash recovery rolls back transactions that were prepared but
// never committed, matching the recovery cases of §A.2.
//
// The package also defines the row-based-replication payload format
// (RowChange, minimal row images) shared between the primary, the binlog,
// and the applier: nothing here reads a before-image (no CDC, no flashback).
package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// RowChange is a single row modification in row-based-replication style,
// as a minimal row image: the key and the after-image, nil for a delete.
// The engine never fills Before (written as the nil marker, formats hold);
// it goes with the bench/layers rows that set it, in the next bench change.
type RowChange struct {
	Key    string
	Before []byte
	After  []byte
}

// IsDelete reports whether the change removes the row.
func (c RowChange) IsDelete() bool { return c.After == nil }

// appendBytes writes a nil-aware length-prefixed byte slice.
func appendBytes(buf []byte, b []byte) []byte {
	if b == nil {
		return binary.BigEndian.AppendUint32(buf, 0xffffffff)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func readBytes(data []byte) ([]byte, []byte, error) {
	b, rest, err := sliceBytes(data)
	return bytes.Clone(b), rest, err // keeps nil (the marker) apart from empty
}

// sliceBytes is readBytes without the copy: the returned slice aliases
// data.
func sliceBytes(data []byte) ([]byte, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("storage: short length prefix")
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	if n == 0xffffffff {
		return nil, data, nil
	}
	if uint32(len(data)) < n {
		return nil, nil, fmt.Errorf("storage: short bytes: want %d have %d", n, len(data))
	}
	return data[:n:n], data[n:], nil
}

// changesSize is the exact encoded length of a row-change list.
func changesSize(changes []RowChange) int {
	n := 4
	for i := range changes {
		c := &changes[i]
		n += 4 + len(c.Key) + 4 + len(c.Before) + 4 + len(c.After)
	}
	return n
}

// appendChanges writes the row-change list framing onto buf. Encoders
// size their one buffer with changesSize first, so this never grows it.
func appendChanges(buf []byte, changes []RowChange) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(changes)))
	for i := range changes {
		c := &changes[i]
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Key)))
		buf = append(buf, c.Key...)
		buf = appendBytes(buf, c.Before)
		buf = appendBytes(buf, c.After)
	}
	return buf
}

// EncodeChanges serializes a row-change list into the transaction payload
// carried by binlog row events.
func EncodeChanges(changes []RowChange) []byte {
	return appendChanges(make([]byte, 0, changesSize(changes)), changes)
}

// DecodeChanges parses a transaction payload into its row changes. Both
// framings are accepted: the legacy change list of EncodeChanges and the
// writeset-bearing payload of EncodeTxnPayload (the writeset section is
// skipped; use DecodeTxnPayload to get it).
func DecodeChanges(data []byte) ([]RowChange, error) {
	_, rest, err := splitPayload(data)
	if err != nil {
		return nil, err
	}
	return decodeChangeList(rest)
}

// decodeChangeList parses the v1 change-list framing.
func decodeChangeList(data []byte) ([]RowChange, error) {
	var changes []RowChange
	err := walkChanges(data, func(key, before, after []byte) error {
		changes = append(changes, RowChange{Key: string(key), Before: bytes.Clone(before), After: bytes.Clone(after)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return changes, nil
}

// walkChanges validates the v1 change-list framing in place, calling fn
// with each change's key, before- and after-image (aliasing data), and
// stops at the first error fn returns.
func walkChanges(data []byte, fn func(key, before, after []byte) error) error {
	if len(data) < 4 {
		return fmt.Errorf("storage: short change list")
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	// Every change carries three 4-byte length prefixes, so a count the
	// remaining bytes cannot hold is corrupt.
	if uint64(n)*12 > uint64(len(data)) {
		return fmt.Errorf("storage: change count %d too large for %d bytes", n, len(data))
	}
	for i := uint32(0); i < n; i++ {
		var key, before, after []byte
		var err error
		if key, data, err = sliceBytes(data); err != nil {
			return err
		}
		if key == nil {
			return fmt.Errorf("storage: change %d has a nil key marker", i)
		}
		if before, data, err = sliceBytes(data); err != nil {
			return err
		}
		if after, data, err = sliceBytes(data); err != nil {
			return err
		}
		if err = fn(key, before, after); err != nil {
			return err
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("storage: %d trailing bytes after change list", len(data))
	}
	return nil
}
