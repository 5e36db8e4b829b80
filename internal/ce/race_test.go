//go:build race

package ce

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops what is put back at random, so allocation counts
// measure the detector, not the code.
const raceEnabled = true
