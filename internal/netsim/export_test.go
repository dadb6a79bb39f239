package netsim

// PoisonReleased makes every message the network takes back be overwritten
// with sentinels (see poisonReleased): a message read after its deliver
// callback returned then shows -1 for its nodes, size and instants.
func PoisonReleased(on bool) { poisonReleased = on }
