package envcore

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCDRRoundTrip(t *testing.T) {
	r := cdrRequest{From: 3, Iter: 42, Lo: 1000, Values: []float64{1.5, -2.25, math.Pi, 0}}
	b := encodeCDR(r)
	got, err := decodeCDR(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != r.From || got.Iter != r.Iter || got.Lo != r.Lo {
		t.Fatalf("header fields: %+v", got)
	}
	for i := range r.Values {
		if got.Values[i] != r.Values[i] {
			t.Fatalf("value %d: %v != %v", i, got.Values[i], r.Values[i])
		}
	}
}

func TestCDRRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := cdrRequest{
			From:   int32(rng.Intn(1000)),
			Iter:   int32(rng.Intn(100000)),
			Lo:     int32(rng.Intn(1 << 20)),
			Values: make([]float64, int(n)),
		}
		for i := range r.Values {
			r.Values[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
		b := encodeCDR(r)
		got, err := decodeCDR(b)
		if err != nil {
			return false
		}
		if got.From != r.From || got.Iter != r.Iter || got.Lo != r.Lo || len(got.Values) != len(r.Values) {
			return false
		}
		for i := range r.Values {
			if got.Values[i] != r.Values[i] && !(math.IsNaN(got.Values[i]) && math.IsNaN(r.Values[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// cdrBytes must match the real encoding exactly: the omniorb row's header
// size is cdrBytes(0).
func TestMessageBytesMatchesEncoding(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 12345} {
		r := cdrRequest{Values: make([]float64, n)}
		if got, want := len(encodeCDR(r)), cdrBytes(n); got != want {
			t.Fatalf("n=%d: encoded %d bytes, cdrBytes says %d", n, got, want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("hello"),
		[]byte("GIOPxxxxxxxxxxx"),
		encodeCDR(cdrRequest{Values: []float64{1}})[:20], // truncated
	}
	for i, b := range cases {
		if _, err := decodeCDR(b); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestGIOPHeaderLargerThanMPIFamily(t *testing.T) {
	// The ORB's fixed overhead is its empty request's encoding, and it
	// must exceed every other environment's header (the wire side of the
	// ORB's Table 3 lag).
	orb := Middleware("omniorb", false).Costs.HeaderBytes
	if orb != cdrBytes(0) {
		t.Fatalf("omniorb header %d bytes, the empty GIOP request %d", orb, cdrBytes(0))
	}
	for _, name := range []string{"mpi", "pm2", "madmpi"} {
		if h := Middleware(name, false).Costs.HeaderBytes; h >= orb {
			t.Fatalf("%s header %d bytes, not below GIOP's %d", name, h, orb)
		}
	}
}
