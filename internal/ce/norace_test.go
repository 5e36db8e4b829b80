//go:build !race

package ce

const raceEnabled = false
