// Package simfast is what is left of the second simulated engine: the
// continuation engine it held is aiac.Run now, the one simulator behind both
// the `sim` and the `sim-fast` backend name. The two names below exist only
// because the files under benchmark/ compile against them; the next
// benchmark-only PR moves those files to package aiac and deletes this one
// (ROADMAP item 8(b)).
package simfast

import "aiac/internal/aiac"

// Run is aiac.Run.
var Run = aiac.Run

// Comm is aiac.Comm.
type Comm = aiac.Comm
