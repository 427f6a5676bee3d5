package binlog

import (
	"bytes"
	"testing"
)

// FuzzReadEntryAt fuzzes the entry decoder that recovery and every
// in-memory-tail miss run on bytes from disk: decoding arbitrary bytes
// never panics, and a successful decode re-encodes to exactly the bytes
// it consumed (the decoder accepts only what appendEntry writes).
func FuzzReadEntryAt(f *testing.F) {
	for _, e := range encodeCorpus() {
		if len(e.Payload) <= 4096 { // keep the seed corpus small
			f.Add(appendEntry(nil, e))
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, n, err := readEntryAt(data, 0, "fuzz")
		if err != nil || e == nil {
			if n != 0 {
				t.Fatalf("failed decode consumed %d bytes", n)
			}
			return
		}
		if n <= 0 || n > int64(len(data)) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if got := appendEntry(nil, e); !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encoding %+v gives %d bytes that differ from the %d decoded", *e, len(got), n)
		}
	})
}
