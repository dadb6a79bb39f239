package envcore

// PoisonReleased makes every snapshot buffer the environment takes back be
// overwritten with NaNs (see poisonReleased), for the whole test binary:
// a value read after its buffer was released then shows in the result.
func PoisonReleased(on bool) { poisonReleased = on }
