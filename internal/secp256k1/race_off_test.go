//go:build !race

package secp256k1

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
