package envcore

import (
	"encoding/binary"
	"errors"
	"math"
)

// This file implements a small GIOP/CDR-style codec: the actual encoding
// OmniORB would put on the wire for the AIAC data messages (a request with
// an operation name and a sequence<double> argument). The omniorb row of
// the middleware table charges marshaling per byte and takes its header
// size from cdrBytes(0); the codec pins down exactly how many bytes that is
// and is exercised by the tests, so the wire size is verified against a
// real encoding rather than guessed.

// giopMagic opens every GIOP message.
var giopMagic = [4]byte{'G', 'I', 'O', 'P'}

const (
	giopVersionMajor = 1
	giopVersionMinor = 2
	msgTypeRequest   = 0
)

// operationName is the remote operation invoked for a data update, as an
// IDL method name.
const operationName = "update_data"

// objectKeyBytes is the POA object key size omniORB generates.
const objectKeyBytes = 24

// align pads n up to a multiple of a.
func align(n, a int) int { return (n + a - 1) / a * a }

// cdrRequest is a decoded AIAC data request.
type cdrRequest struct {
	From   int32
	Iter   int32
	Lo     int32
	Values []float64
}

// encodeCDR marshals a cdrRequest into a GIOP 1.2 Request message with
// CDR-encoded body. Layout:
//
//	12-byte GIOP header
//	request id (4) + response flags (1) + reserved (3)
//	target address disposition (2) + pad (2)
//	object key length (4) + object key (24)
//	operation string length (4) + "update_data\0" (12, padded to 4)
//	service context count (4)
//	body: from (4) + iter (4) + lo (4) + pad (4) +
//	      sequence length (4) + pad to 8 + doubles (8 each)
func encodeCDR(r cdrRequest) []byte {
	buf := make([]byte, 0, cdrBytes(len(r.Values)))
	le := binary.LittleEndian

	// GIOP header.
	buf = append(buf, giopMagic[:]...)
	buf = append(buf, giopVersionMajor, giopVersionMinor, 1 /* little-endian flag */, msgTypeRequest)
	buf = le.AppendUint32(buf, 0) // message size, patched below

	// Request header.
	buf = le.AppendUint32(buf, 1) // request id
	buf = append(buf, 3, 0, 0, 0) // response expected + reserved
	buf = le.AppendUint16(buf, 0) // KeyAddr
	buf = append(buf, 0, 0)       // pad
	buf = le.AppendUint32(buf, objectKeyBytes)
	for i := 0; i < objectKeyBytes; i++ {
		buf = append(buf, byte('k'))
	}
	op := operationName + "\x00"
	buf = le.AppendUint32(buf, uint32(len(op)))
	buf = append(buf, op...)
	for len(buf)%4 != 0 {
		buf = append(buf, 0)
	}
	buf = le.AppendUint32(buf, 0) // no service contexts

	// Body.
	buf = le.AppendUint32(buf, uint32(r.From))
	buf = le.AppendUint32(buf, uint32(r.Iter))
	buf = le.AppendUint32(buf, uint32(r.Lo))
	buf = le.AppendUint32(buf, 0) // pad
	buf = le.AppendUint32(buf, uint32(len(r.Values)))
	for len(buf)%8 != 0 {
		buf = append(buf, 0)
	}
	for _, v := range r.Values {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	le.PutUint32(buf[8:], uint32(len(buf)-12))
	return buf
}

// errBadCDR reports a malformed GIOP message.
var errBadCDR = errors.New("envcore: malformed GIOP message")

// decodeCDR unmarshals a message produced by encodeCDR.
func decodeCDR(b []byte) (cdrRequest, error) {
	var r cdrRequest
	le := binary.LittleEndian
	if len(b) < 12 || b[0] != 'G' || b[1] != 'I' || b[2] != 'O' || b[3] != 'P' {
		return r, errBadCDR
	}
	if int(le.Uint32(b[8:])) != len(b)-12 {
		return r, errBadCDR
	}
	off := 12
	off += 4 + 4 + 2 + 2 // request id, flags, disposition, pad
	if off+4 > len(b) {
		return r, errBadCDR
	}
	keyLen := int(le.Uint32(b[off:]))
	off += 4 + keyLen
	if off+4 > len(b) {
		return r, errBadCDR
	}
	opLen := int(le.Uint32(b[off:]))
	off += 4 + opLen
	off = align(off, 4)
	off += 4 // service contexts
	if off+20 > len(b) {
		return r, errBadCDR
	}
	r.From = int32(le.Uint32(b[off:]))
	r.Iter = int32(le.Uint32(b[off+4:]))
	r.Lo = int32(le.Uint32(b[off+8:]))
	n := int(le.Uint32(b[off+16:]))
	off += 20
	off = align(off, 8)
	if off+8*n > len(b) {
		return r, errBadCDR
	}
	r.Values = make([]float64, n)
	for i := range r.Values {
		r.Values[i] = math.Float64frombits(le.Uint64(b[off+8*i:]))
	}
	return r, nil
}

// cdrBytes returns the exact on-the-wire size of a data request with n
// doubles, matching encodeCDR.
func cdrBytes(n int) int {
	size := 12            // GIOP header
	size += 4 + 4 + 2 + 2 // request id, flags, addressing
	size += 4 + objectKeyBytes
	size += 4 + len(operationName) + 1
	size = align(size, 4)
	size += 4 // service contexts
	size += 20
	size = align(size, 8)
	size += 8 * n
	return size
}
