package transport

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeHeader feeds arbitrary bytes to the frame decoder: it must
// never panic, never allocate from a hostile value count, and whenever it
// accepts a frame, re-encoding the decoded message must reproduce the
// input byte for byte (the decoder accepts nothing AppendMsg could not
// have produced), also when it decodes into a reused buffer.
func FuzzDecodeHeader(f *testing.F) {
	// Seed with valid frames of each message kind plus hostile prefixes.
	for _, m := range []Msg{
		{Type: MsgData, From: 3, Key: 17, Seq: 1234, Lo: 9000, Values: []float64{1.5, -2.25, math.Pi}},
		{Type: MsgState, From: 1, Flag: true, Seq: 7},
		{Type: MsgReduceResult, From: 0, Seq: 12, Values: []float64{math.Inf(1)}},
	} {
		f.Add(AppendMsg(nil, m)[4:]) // DecodeMsg takes the body after the size field
	}
	f.Add([]byte{frameMagic})
	f.Add(bytes.Repeat([]byte{0xFF}, frameHeaderBytes-4))

	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := DecodeMsg(body)
		if err != nil {
			return
		}
		// Round-trip: an accepted body must be exactly what AppendMsg
		// emits for the decoded message.
		frame := AppendMsg(nil, m)
		if !bytes.Equal(frame[4:], body) {
			t.Fatalf("decode/encode mismatch:\nin  %x\nout %x\nmsg %+v", body, frame[4:], m)
		}
		if MsgBytes(len(m.Values)) != len(body)+4 {
			t.Fatalf("MsgBytes(%d) = %d, want %d", len(m.Values), MsgBytes(len(m.Values)), len(body)+4)
		}
		// Decoding into a dirty reused buffer, as the TCP reader does,
		// must give the same message.
		vals := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
		into, err := decodeMsgInto(body, &vals)
		if err != nil || !bytes.Equal(AppendMsg(nil, into), frame) {
			t.Fatalf("decode into a reused buffer: %+v, %v; want %+v", into, err, m)
		}
	})
}
