//go:build !race

package enginetest

const raceEnabled = false
