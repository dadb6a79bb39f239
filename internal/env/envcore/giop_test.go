package envcore

import "testing"

// giopHeaderBytes is the empty data request's size, summed field by field
// as the GIOP 1.2 layout beside the constant lists it: each CDR field
// aligned to its own size, the doubles at the first 8-aligned offset after
// the sequence length.
func TestGIOPHeaderLayout(t *testing.T) {
	align := func(n, a int) int { return (n + a - 1) / a * a }
	const objectKey = 24               // omniORB's POA object key
	size := 12                         // "GIOP", version, flags, type, message size
	size += 4 + 1 + 3                  // request id, response flags, reserved
	size += 2 + 2                      // KeyAddr disposition, pad
	size += 4 + objectKey              // object key
	size += 4 + len("update_data\x00") // operation
	size = align(size, 4) + 4          // service context count
	size += 4 + 4 + 4 + 4 + 4          // from, iter, lo, pad, sequence length
	if size = align(size, 8); size != giopHeaderBytes {
		t.Fatalf("GIOP 1.2 layout gives %d bytes, giopHeaderBytes is %d", size, giopHeaderBytes)
	}
}

func TestGIOPHeaderLargerThanMPIFamily(t *testing.T) {
	// The ORB's fixed overhead is its empty request's size, and it must
	// exceed every other environment's header (the wire side of the ORB's
	// Table 3 lag).
	orb := Middleware("omniorb", false).Costs.HeaderBytes
	if orb != giopHeaderBytes {
		t.Fatalf("omniorb header %d bytes, the empty GIOP request %d", orb, giopHeaderBytes)
	}
	for _, name := range []string{"mpi", "pm2", "madmpi"} {
		if h := Middleware(name, false).Costs.HeaderBytes; h >= orb {
			t.Fatalf("%s header %d bytes, not below GIOP's %d", name, h, orb)
		}
	}
}
