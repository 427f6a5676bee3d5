package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// A Writeset is the hashed touch-set of a transaction: one 64-bit hash
// per distinct row key the transaction writes, sorted and de-duplicated.
// The primary extracts it at prepare time and serializes it ahead of the
// row changes in the transaction payload (MySQL's WRITESET transaction
// dependency tracking); the replica's parallel applier uses it to decide
// which transactions may apply concurrently without ever decoding the
// full row payload. Hash collisions are safe: a collision only makes two
// independent transactions look conflicting, which serializes them.
type Writeset []uint64

// HashKey hashes one row key into the writeset domain (FNV-1a 64).
func HashKey(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// WritesetOf extracts the writeset of a row-change list.
func WritesetOf(changes []RowChange) Writeset {
	if len(changes) == 0 {
		return nil
	}
	return appendWriteset(make(Writeset, 0, len(changes)), changes)
}

// appendWriteset fills ws (empty, any capacity) with the sorted,
// de-duplicated key hashes of changes.
func appendWriteset(ws Writeset, changes []RowChange) Writeset {
	for i := range changes {
		ws = append(ws, HashKey(changes[i].Key))
	}
	slices.Sort(ws)
	// A transaction may rewrite the same row.
	return slices.Compact(ws)
}

// payloadMagicV2 opens a writeset-bearing transaction payload. The legacy
// (v1) payload starts with the row-change count, which DecodeChanges caps
// at 1<<20, so any value above that cap is unambiguous as a version
// marker.
const payloadMagicV2 uint32 = 0xff57_5e70 // "WSET"-ish, > maxChanges

// maxWriteset bounds the serialized writeset. A transaction touching more
// rows than this ships without one and falls back to serial apply on the
// replica — the same escape hatch MySQL's bounded writeset history uses.
const maxWriteset = 4096

// EncodeTxnPayload serializes a row-change list plus its writeset into
// the transaction payload carried by binlog row events. Oversized
// writesets are dropped (legacy v1 framing), signalling serial apply.
func EncodeTxnPayload(changes []RowChange) []byte {
	// The writeset is only needed until it is copied into the payload, so
	// the usual few-row transaction hashes into a stack buffer.
	var small [16]uint64
	ws := Writeset(small[:0])
	if len(changes) > len(small) {
		ws = make(Writeset, 0, len(changes))
	}
	ws = appendWriteset(ws, changes)
	if len(ws) == 0 || len(ws) > maxWriteset {
		return EncodeChanges(changes)
	}
	buf := make([]byte, 0, 8+8*len(ws)+changesSize(changes))
	buf = binary.BigEndian.AppendUint32(buf, payloadMagicV2)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ws)))
	for _, h := range ws {
		buf = binary.BigEndian.AppendUint64(buf, h)
	}
	return appendChanges(buf, changes)
}

// WritesetView is a payload's writeset section read in place: Len
// big-endian hashes, sorted and de-duplicated.
type WritesetView []byte

// Len is the number of hashes.
func (v WritesetView) Len() int { return len(v) / 8 }

// At returns hash i.
func (v WritesetView) At(i int) uint64 { return binary.BigEndian.Uint64(v[8*i:]) }

// splitPayload separates the writeset section (if any) from the v1
// change-list remainder without copying either. A v1 payload returns
// (nil, data, nil).
func splitPayload(data []byte) (WritesetView, []byte, error) {
	if len(data) < 4 || binary.BigEndian.Uint32(data) != payloadMagicV2 {
		return nil, data, nil
	}
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("storage: short writeset header")
	}
	n := binary.BigEndian.Uint32(data[4:8])
	if n == 0 || n > maxWriteset {
		return nil, nil, fmt.Errorf("storage: writeset size %d out of range", n)
	}
	end := 8 + int(n)*8
	if len(data) < end {
		return nil, nil, fmt.Errorf("storage: writeset truncated: want %d bytes have %d", end, len(data))
	}
	return WritesetView(data[8:end:end]), data[end:], nil
}

// PayloadWriteset peeks the writeset out of a transaction payload without
// decoding the row changes or copying the hashes — the replica's
// dependency tracker runs on the hot dispatch path and must not pay for a
// full payload decode. ok is false for legacy payloads that carry no
// writeset.
func PayloadWriteset(data []byte) (ws WritesetView, ok bool) {
	ws, _, err := splitPayload(data)
	if err != nil || ws == nil {
		return nil, false
	}
	return ws, true
}

// DecodeTxnPayload parses a payload produced by EncodeTxnPayload or
// EncodeChanges, returning the row changes and the writeset (nil for
// legacy payloads).
func DecodeTxnPayload(data []byte) ([]RowChange, Writeset, error) {
	view, rest, err := splitPayload(data)
	if err != nil {
		return nil, nil, err
	}
	changes, err := decodeChangeList(rest)
	if err != nil {
		return nil, nil, err
	}
	var ws Writeset
	for i := range view.Len() {
		ws = append(ws, view.At(i))
	}
	return changes, ws, nil
}
