//go:build race

package evm

// race reports whether the race detector is compiled in: it changes
// what allocates, so allocation counts are not pinned under it.
const race = true
