package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzUnmarshal feeds the decoder arbitrary frames, seeded with one frame
// of every message type. Decoding never panics and never writes into its
// input, and whatever decodes re-encodes to the input byte for byte with
// EncodedSize equal to the encoded length.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range sampleMessages(f) {
		data, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytes.Clone(data)
		m, err := Unmarshal(data)
		if !bytes.Equal(data, orig) {
			t.Fatal("Unmarshal wrote into its input")
		}
		if err != nil {
			return
		}
		out, err := Marshal(m)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("%T: decode → Marshal changed the frame:\n in %x\nout %x", m, data, out)
		}
		if m.EncodedSize() != len(out) {
			t.Fatalf("%T: EncodedSize %d, Marshal wrote %d", m, m.EncodedSize(), len(out))
		}
	})
}

// FuzzDecodeConfig feeds DecodeConfig arbitrary bytes, as config entries
// and InstallSnapshot messages arriving over the network can carry.
// Decoding never panics, and whatever decodes is a fixed point of
// decode → EncodeConfig → decode.
func FuzzDecodeConfig(f *testing.F) {
	for _, c := range []Config{
		{},
		{Members: []Member{{ID: "n1", Region: "r1", Voter: true}}},
		{Members: []Member{
			{ID: "mysql-0", Region: "region-0", Voter: true},
			{ID: "lt-0-0", Region: "region-0", Voter: true, Witness: true},
			{ID: "mysql-9", Region: "region-1"},
		}},
	} {
		f.Add(EncodeConfig(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeConfig(data)
		if err != nil {
			return
		}
		enc := EncodeConfig(c)
		again, err := DecodeConfig(enc)
		if err != nil {
			t.Fatalf("re-encoded config does not decode: %v\n in %x\nout %x", err, data, enc)
		}
		if !reflect.DeepEqual(again, c) || !bytes.Equal(EncodeConfig(again), enc) {
			t.Fatalf("decode → EncodeConfig → decode is not a fixed point:\n in %x\nout %x", data, enc)
		}
	})
}
