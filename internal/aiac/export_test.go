package aiac

// OverlapMinFlops and HelperUpdates open overlap.go to the external tests.
const OverlapMinFlops = overlapMinFlops

func HelperUpdates() int64 { return helperUpdates.Load() }
