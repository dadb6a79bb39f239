// Command app links part of the fixture library.
package main

import (
	"fmt"

	"fix/lib"
)

type emer interface{ M() int }

func main() {
	var e emer = &lib.Val{}
	var q lib.FIFO[*uint8]
	q.Push(nil)
	fmt.Println(lib.Used(), lib.Stale(), e.M(), q.Len())
}

func unused() {} // want `fix/cmd/app.unused is linked into no binary`
