package transport

import (
	"bytes"
	"math"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	msgs := []Msg{
		{Type: MsgData, From: 3, Key: 17, Seq: 1234, Lo: 9000, Values: []float64{1.5, -2.25, math.Pi, 0}},
		{Type: MsgState, From: 7, Seq: 42, Flag: true},
		{Type: MsgStop, From: 0},
		{Type: MsgReduce, From: 5, Seq: -1, Values: []float64{3.75}},
		{Type: MsgReduceResult, From: 0, Seq: 12, Values: []float64{math.Inf(1)}},
	}
	for _, m := range msgs {
		frame := AppendMsg(nil, m)
		if len(frame) != MsgBytes(len(m.Values)) {
			t.Fatalf("frame is %d bytes, MsgBytes says %d", len(frame), MsgBytes(len(m.Values)))
		}
		got, err := DecodeMsg(frame[4:])
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		if got.Type != m.Type || got.From != m.From || got.Key != m.Key ||
			got.Seq != m.Seq || got.Lo != m.Lo || got.Flag != m.Flag ||
			len(got.Values) != len(m.Values) {
			t.Fatalf("round trip mismatch: sent %+v, got %+v", m, got)
		}
		for i := range m.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(m.Values[i]) {
				t.Fatalf("value %d: sent %v, got %v", i, m.Values[i], got.Values[i])
			}
		}
	}
}

func TestCodecStreamFraming(t *testing.T) {
	var buf []byte
	want := []Msg{
		{Type: MsgData, From: 1, Key: 2, Seq: 3, Lo: 4, Values: []float64{1, 2, 3}},
		{Type: MsgState, From: 2, Seq: 9, Flag: true},
		{Type: MsgData, From: 1, Key: 2, Seq: 4, Lo: 4, Values: []float64{5}},
	}
	for _, m := range want {
		buf = AppendMsg(buf, m)
	}
	r := bytes.NewReader(buf)
	// One pair of buffers for the whole stream, as a TCP reader keeps.
	var body []byte
	var vals []float64
	for i, m := range want {
		got, err := readMsg(r, &body, &vals)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != m.Type || got.Seq != m.Seq || len(got.Values) != len(m.Values) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, got, m)
		}
		for j, v := range m.Values {
			if got.Values[j] != v {
				t.Fatalf("frame %d value %d: got %v, want %v", i, j, got.Values[j], v)
			}
		}
	}
	if _, err := readMsg(r, &body, &vals); err == nil {
		t.Fatal("reading past the stream end should fail")
	}
}

// TestReadFrameAllocs pins the TCP receive path in steady state: reading
// and decoding a data frame into a connection's reused buffers allocates
// nothing.
func TestReadFrameAllocs(t *testing.T) {
	frame := AppendMsg(nil, Msg{Type: MsgData, From: 1, Key: 2, Seq: 3, Lo: 4, Values: make([]float64, 750)})
	var body []byte
	var vals []float64
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeMsgInto(frame[4:], &vals); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decodeMsgInto allocates %.0f per frame; want 0", n)
	}
	r := bytes.NewReader(frame)
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if m, err := readMsg(r, &body, &vals); err != nil || len(m.Values) != 750 {
			t.Fatalf("readMsg = %d values, %v", len(m.Values), err)
		}
	}); n != 0 {
		t.Errorf("readMsg allocates %.0f per frame; want 0", n)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	frame := AppendMsg(nil, Msg{Type: MsgData, Values: []float64{1, 2}})
	cases := map[string][]byte{
		"bad magic":       append([]byte{0x00}, frame[5:]...),
		"unknown type":    append([]byte{frameMagic, 0x7f}, frame[6:]...),
		"truncated":       frame[4 : len(frame)-3],
		"count too large": func() []byte { b := append([]byte(nil), frame[4:]...); b[16] = 0xff; return b }(),
	}
	for name, b := range cases {
		if _, err := DecodeMsg(b); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", name)
		}
	}
}
