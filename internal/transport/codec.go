package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// This file is the TCP transport's wire format: a compact little-endian
// binary framing in the spirit of internal/env/envcore's CDR codec, but
// without GIOP's request envelope — the AIAC protocol needs only five
// message kinds and a float64 payload, so the whole header fits in 24
// bytes. As with the ORB codec, the exact frame size is exposed
// (MsgBytes) so traffic accounting uses real wire bytes rather than
// guesses, and the in-process transport charges the same sizes for
// comparability.
//
// Frame layout (little-endian):
//
//	size  (4)  remaining frame bytes after this field
//	magic (1)  frameMagic, a cheap desync guard
//	type  (1)  MsgType
//	flag  (1)  boolean payload (state messages)
//	from  (1)  sender rank (native runs are well under 256 ranks)
//	key   (4)  send-plan channel id
//	seq   (4)  iteration / sequence number
//	lo    (4)  global index of Values[0]
//	count (4)  number of float64 values
//	values(8×count)

const frameMagic = 0xA1

// frameHeaderBytes is the fixed frame prefix, including the size field.
const frameHeaderBytes = 4 + 1 + 1 + 1 + 1 + 4 + 4 + 4 + 4

// maxFrameValues bounds a decoded frame's value count (a corrupt or
// hostile size field must not drive an allocation).
const maxFrameValues = 1 << 24

// ErrBadFrame reports a malformed wire frame.
var ErrBadFrame = errors.New("transport: malformed frame")

// MsgBytes returns the exact wire size of a message carrying n values,
// matching AppendMsg.
func MsgBytes(n int) int { return frameHeaderBytes + 8*n }

// AppendMsg appends m's wire frame to buf and returns the extended slice.
//
//lint:hotpath
func AppendMsg(buf []byte, m Msg) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(MsgBytes(len(m.Values))-4))
	flag := byte(0)
	if m.Flag {
		flag = 1
	}
	buf = append(buf, frameMagic, byte(m.Type), flag, byte(m.From))
	buf = le.AppendUint32(buf, uint32(m.Key))
	buf = le.AppendUint32(buf, uint32(m.Seq))
	buf = le.AppendUint32(buf, uint32(m.Lo))
	buf = le.AppendUint32(buf, uint32(len(m.Values)))
	for _, v := range m.Values {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// DecodeMsg parses one frame produced by AppendMsg. b excludes the leading
// size field. The returned Values are freshly allocated.
func DecodeMsg(b []byte) (Msg, error) {
	var vals []float64
	return decodeMsgInto(b, &vals)
}

// decodeMsgInto is DecodeMsg decoding Values into *vals, which grows only
// when a frame outgrows it: the returned Msg aliases *vals.
func decodeMsgInto(b []byte, vals *[]float64) (Msg, error) {
	var m Msg
	le := binary.LittleEndian
	if len(b) < frameHeaderBytes-4 || b[0] != frameMagic {
		return m, ErrBadFrame
	}
	m.Type = MsgType(b[1])
	if m.Type < MsgData || m.Type > MsgReduceResult {
		return m, fmt.Errorf("%w: unknown type %d", ErrBadFrame, b[1])
	}
	if b[2] > 1 {
		// AppendMsg only ever writes 0 or 1: anything else is a
		// desynchronised or corrupt stream, not a boolean.
		return m, fmt.Errorf("%w: flag byte %d", ErrBadFrame, b[2])
	}
	m.Flag = b[2] != 0
	m.From = int32(b[3])
	m.Key = int32(le.Uint32(b[4:]))
	m.Seq = int32(le.Uint32(b[8:]))
	m.Lo = int32(le.Uint32(b[12:]))
	n := int(le.Uint32(b[16:]))
	if n > maxFrameValues || len(b) != frameHeaderBytes-4+8*n {
		return m, fmt.Errorf("%w: %d values in a %d-byte frame", ErrBadFrame, n, len(b)+4)
	}
	if n > 0 {
		if cap(*vals) < n {
			*vals = make([]float64, n)
		}
		m.Values = (*vals)[:n]
		for i := range m.Values {
			m.Values[i] = math.Float64frombits(le.Uint64(b[20+8*i:]))
		}
	}
	return m, nil
}

// readMsg reads and decodes one length-prefixed frame from r into the
// caller's buffers, which grow only when a frame outgrows them: *body
// holds the frame, *vals the decoded Values. The returned Msg aliases
// *vals, so it is valid until the next call on the same buffers.
func readMsg(r io.Reader, body *[]byte, vals *[]float64) (Msg, error) {
	if cap(*body) < 4 {
		*body = make([]byte, 4, frameHeaderBytes)
	}
	if _, err := io.ReadFull(r, (*body)[:4]); err != nil {
		return Msg{}, err
	}
	size := int(binary.LittleEndian.Uint32(*body))
	if size < frameHeaderBytes-4 || size > frameHeaderBytes-4+8*maxFrameValues {
		return Msg{}, fmt.Errorf("%w: frame size %d", ErrBadFrame, size)
	}
	if cap(*body) < size {
		*body = make([]byte, size)
	}
	b := (*body)[:size]
	if _, err := io.ReadFull(r, b); err != nil {
		return Msg{}, err
	}
	return decodeMsgInto(b, vals)
}
