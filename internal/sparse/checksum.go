package sparse

import "math"

// Content checksums: word-level FNV-1a over float bit patterns (and
// offsets), order-sensitive. Not cryptographic — they only need to catch
// accidental in-place mutation of a shared system. Nothing persists them:
// problems.Cache compares each entry's checksum with its own earlier one.
//
// A slice is summed in sumLanes lanes — word i feeds lane i mod sumLanes,
// each lane its own FNV-1a chain — and the lanes are then folded in
// order. Each step of a chain is a bijection of its state, and so is each
// fold, so changing any single word always changes the checksum, as the
// serial chain did; the chains run side by side, at memory speed instead
// of one multiply latency per word. Several slices are summed on two
// goroutines when they are large enough to pay for it (checksum).
const (
	fpInit  uint64 = 14695981039346656037
	fpPrime uint64 = 1099511628211
)

// sumLanes is the lane count: eight independent chains cover the multiply
// latency (0.7 ns a word on a 2-core Xeon, against 1.0 for four and 1.6
// for the serial chain).
const sumLanes = 8

func fpMix(sum, w uint64) uint64 { return (sum ^ w) * fpPrime }

// laneSum is the checksum of one slice: its length, then its lanes.
//
//lint:hotpath
func laneSum(xs []float64) uint64 {
	l0, l1, l2, l3 := fpInit, fpInit, fpInit, fpInit
	l4, l5, l6, l7 := fpInit, fpInit, fpInit, fpInit
	i := 0
	for ; i+sumLanes <= len(xs); i += sumLanes {
		x := xs[i : i+sumLanes : i+sumLanes]
		l0 = (l0 ^ math.Float64bits(x[0])) * fpPrime
		l1 = (l1 ^ math.Float64bits(x[1])) * fpPrime
		l2 = (l2 ^ math.Float64bits(x[2])) * fpPrime
		l3 = (l3 ^ math.Float64bits(x[3])) * fpPrime
		l4 = (l4 ^ math.Float64bits(x[4])) * fpPrime
		l5 = (l5 ^ math.Float64bits(x[5])) * fpPrime
		l6 = (l6 ^ math.Float64bits(x[6])) * fpPrime
		l7 = (l7 ^ math.Float64bits(x[7])) * fpPrime
	}
	l := [sumLanes]uint64{l0, l1, l2, l3, l4, l5, l6, l7}
	for j, x := range xs[i:] {
		l[j] = (l[j] ^ math.Float64bits(x)) * fpPrime
	}
	sum := fpMix(fpInit, uint64(len(xs)))
	for _, w := range l {
		sum = fpMix(sum, w)
	}
	return sum
}

// parallelSumFloats is the least number of floats for which checksum
// splits its slices over two goroutines. Timed against one goroutine,
// alternating (medians of 60 sums, 12-band systems, a 2-core Xeon), the
// split took 1.5–1.7 ms against 2.8–3.2 ms at 3.75M floats
// and 0.87–1.15 ms against 1.6–2.1 ms at 2.1M in every run; at 1.05M it
// won in four runs of six and lost by 7 % in two, and from 0.18M to 0.53M
// floats it won or lost by up to a quarter, waiting for the other core.
const parallelSumFloats = 1 << 21

// checksum folds the checksum of each part, in order, into head. Large
// inputs are summed on two goroutines, one taking the even-numbered parts
// and one the odd; the result does not depend on the split.
func checksum(head uint64, parts ...[]float64) uint64 {
	sums := make([]uint64, len(parts))
	every := func(from int) {
		for i := from; i < len(parts); i += 2 {
			sums[i] = laneSum(parts[i])
		}
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total < parallelSumFloats || len(parts) < 2 {
		every(0)
		every(1)
	} else {
		onBoth(func() { every(0) }, func() { every(1) })
	}
	return fold(head, sums)
}

// fold mixes each part checksum, in order, into head.
func fold(head uint64, sums []uint64) uint64 {
	for _, s := range sums {
		head = fpMix(head, s)
	}
	return head
}

// SystemSum is the checksum of an assembled system: the matrix's
// Fingerprint, then b and xTrue. NewSystemSum returns the same value for
// the system it builds.
func SystemSum(a *DIA, b, xTrue []float64) uint64 {
	return checksum(a.Fingerprint(), b, xTrue)
}

// Fingerprint implements Operator: a full scan over the offsets and every
// stored band entry.
func (a *DIA) Fingerprint() uint64 {
	return checksum(a.header(), a.Diags...)
}

// header folds the matrix's shape: n and its offsets.
func (a *DIA) header() uint64 {
	sum := fpMix(fpInit, uint64(a.N))
	for _, o := range a.Offsets {
		sum = fpMix(sum, uint64(int64(o)))
	}
	return sum
}

// onBoth runs f on this goroutine and g on another, and returns when both
// have.
func onBoth(f, g func()) {
	done := make(chan struct{})
	go func() {
		g()
		close(done)
	}()
	f()
	<-done
}
