//go:build race

package core

// raceEnabled: under the race detector sync.Pool deliberately drops a
// share of what is put into it, so allocation pins cannot hold.
const raceEnabled = true
