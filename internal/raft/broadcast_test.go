package raft

import (
	"slices"
	"sync"
	"testing"

	"myraft/internal/gtid"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// sendSpy records the entry-bearing AppendEntries a node sends: what was
// sent to whom, and which entries it carried at the time (the batch
// buffer is the sender's to reuse once Send returns).
type sendSpy struct {
	*transport.Endpoint
	mu   sync.Mutex
	sent []spiedSend
}

type spiedSend struct {
	to      wire.NodeID
	msg     wire.Message
	indexes []uint64
}

func (s *sendSpy) Send(to wire.NodeID, msg wire.Message) error {
	if req, ok := wire.Unwrap(msg).(*wire.AppendEntriesReq); ok && len(req.Entries) > 0 {
		sd := spiedSend{to: to, msg: msg}
		for _, e := range req.Entries {
			sd.indexes = append(sd.indexes, e.OpID.Index)
		}
		s.mu.Lock()
		s.sent = append(s.sent, sd)
		s.mu.Unlock()
	}
	return s.Endpoint.Send(to, msg)
}

// sendsCarrying returns, per message sent, the peers it went to, for
// every send whose batch held index.
func (s *sendSpy) sendsCarrying(index uint64) map[wire.Message][]wire.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[wire.Message][]wire.NodeID)
	for _, sd := range s.sent {
		if slices.Contains(sd.indexes, index) {
			out[sd.msg] = append(out[sd.msg], sd.to)
		}
	}
	return out
}

// A broadcast to k direct peers waiting on the same entries builds the
// request once and marshals it once: every peer is handed the same Frame.
func TestBroadcastEncodesBatchOnceForIdenticalPeers(t *testing.T) {
	const members = 5
	var spy *sendSpy
	c := newClusterOn(t, flatConfig(members), nil, nil, func(ep *transport.Endpoint) Transport {
		if ep.ID() != "n0" {
			return ep
		}
		spy = &sendSpy{Endpoint: ep}
		return spy
	})
	n0 := c.elect("n0")
	c.waitCondition("followers caught up", func() bool {
		st := n0.Status()
		for _, n := range c.nodes {
			if n.Status().LastOpID != st.LastOpID {
				return false
			}
		}
		return st.CommitIndex == st.LastOpID.Index
	})
	op, err := n0.Propose([]byte("row"), gtid.GTID{Source: "uuid-0", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	c.waitCondition("entry committed", func() bool { return n0.Status().CommitIndex >= op.Index })

	sends := spy.sendsCarrying(op.Index)
	var shared *wire.Frame
	for msg, peers := range sends {
		if f, ok := msg.(*wire.Frame); ok && len(peers) == members-1 {
			shared = f
		}
	}
	if shared == nil {
		t.Fatalf("no single frame carried entry %d to all %d peers: %d distinct sends", op.Index, members-1, len(sends))
	}
	got, err := wire.Unmarshal(shared.Data)
	if err != nil {
		t.Fatal(err)
	}
	if e := got.(*wire.AppendEntriesReq).Entries; e[len(e)-1].OpID != op || string(e[len(e)-1].Payload) != "row" {
		t.Fatalf("frame bytes decode to entries %+v", e)
	}
}
