package envcore

// PoisonReleased makes everything the environment recycles be overwritten
// with sentinels when it is released (see poisonReleased), for the whole
// test binary: a snapshot buffer is filled with NaNs, and a wire gets a kind
// receive refuses, NaN values and -1 for its ranks, round, key, size and
// trace index (poisonWire). A value read after its release then shows in
// the result, or panics. A handler parked back in its endpoint's pool holds
// no wire at all.
func PoisonReleased(on bool) { poisonReleased = on }
