package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"myraft/internal/wire"
)

type opKind uint8

const (
	opWrite opKind = iota
	opReadLin
	opReadLease
	opReadSession
	numOpKinds
)

var opKindNames = [numOpKinds]string{"write", "read_lin", "read_lease", "read_session"}

// op is one generated client operation. Seq numbers the session's writes
// and is carried in the value, so a read can be checked against it.
type op struct {
	Kind opKind
	Key  int
	Seq  uint32
}

// opStream generates one session's ops from the run seed alone. A session
// owns the keys congruent to its index, so every key has a single
// sequential writer and the value a consistent read must return is known.
type opStream struct {
	rng      *rand.Rand
	session  int
	sessions int
	readPct  int
	seq      uint32
}

func newOpStream(seed int64, session, sessions, readPct int) *opStream {
	return &opStream{
		rng:     rand.New(rand.NewSource(seed*1000003 + int64(session))),
		session: session, sessions: sessions, readPct: readPct,
	}
}

func (s *opStream) next() op {
	o := op{Key: s.session + s.sessions*s.rng.Intn(keyCount/s.sessions)}
	if s.rng.Intn(100) < s.readPct {
		o.Kind = opReadLin + opKind(s.rng.Intn(3))
		return o
	}
	s.seq++
	o.Seq = s.seq
	return o
}

func wireID(prefix string, i int) wire.NodeID { return wire.NodeID(fmt.Sprintf("%s%d", prefix, i)) }

func keyName(k int) string { return fmt.Sprintf("k%05d", k) }

// filler is the constant tail of every value; only the 8-byte header
// (key, seq) differs between values.
var filler = func() []byte {
	b := make([]byte, valueSize)
	rand.New(rand.NewSource(11)).Read(b)
	return b
}()

// fillValue writes the value for (key, seq) into buf[:valueSize].
func fillValue(buf []byte, key int, seq uint32) []byte {
	buf = buf[:valueSize]
	copy(buf, filler)
	binary.BigEndian.PutUint32(buf[0:], uint32(key))
	binary.BigEndian.PutUint32(buf[4:], seq)
	return buf
}

// valueIs reports whether v is exactly the value written for (key, seq).
func valueIs(v []byte, key int, seq uint32) bool {
	return len(v) == valueSize &&
		binary.BigEndian.Uint32(v[0:]) == uint32(key) &&
		binary.BigEndian.Uint32(v[4:]) == seq &&
		bytes.Equal(v[8:], filler[8:])
}
