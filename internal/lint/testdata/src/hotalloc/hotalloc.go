// Package hotalloc is the fixture for the hotalloc analyzer. Only
// functions marked //lint:hotpath are checked; the annotation is the
// opt-in promise.
package hotalloc

type point struct{ x, y float64 }

//lint:hotpath
func allocates(n int) []int {
	s := make([]int, n) // want `calls make`
	s = append(s, 1)    // want `appends to non-parameter storage`
	p := new(point)     // want `calls new`
	_ = p
	lit := []int{1, 2} // want `builds a slice literal`
	_ = lit
	m := map[int]int{} // want `builds a map literal`
	_ = m
	pp := &point{x: 1} // want `address of a composite literal`
	_ = pp
	return s
}

//lint:hotpath
func closes(xs []float64) float64 {
	f := func(v float64) float64 { return v * v } // want `defines a closure`
	return f(xs[0])
}

//lint:hotpath
func spawns(ch chan int) {
	go sink(ch) // want `starts a goroutine`
}

func sink(ch chan int) { <-ch }

// Appending into a caller-owned parameter buffer is the one amortized
// exception (the transport.AppendMsg pattern).
//
//lint:hotpath
func encode(buf []byte, v byte) []byte {
	buf = append(buf, v)
	buf = append(buf, 0, 1, 2)
	return buf
}

// Fixed-size arrays are stack storage; value composite literals of
// structs stay put too.
//
//lint:hotpath
func stackOnly(xs []float64) float64 {
	var tmp [8]float64
	pt := point{x: xs[0]}
	for i := range tmp {
		tmp[i] = pt.x
	}
	return tmp[7]
}

// Unannotated functions may allocate freely: the check is opt-in.
func coldPath(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// An intrusive free list is pointer push and pop: nothing grows, so the
// hot path may recycle through one (netsim's Message, envcore's wire).
type node struct {
	next *node
	v    float64
}

type pool struct {
	free  *node
	slots []*node
}

//lint:hotpath
func (p *pool) put(n *node) {
	n.v = 0
	n.next = p.free
	p.free = n
}

//lint:hotpath
func (p *pool) get() *node {
	n := p.free
	if n != nil {
		p.free, n.next = n.next, nil
	}
	return n
}

// A pool that appends to a field grows its backing array, and growth
// allocates.
//
//lint:hotpath
func (p *pool) putSlot(n *node) {
	p.slots = append(p.slots, n) // want `appends to non-parameter storage`
}
