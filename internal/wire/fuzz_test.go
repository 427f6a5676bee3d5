package wire

import (
	"bytes"
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
