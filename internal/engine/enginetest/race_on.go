//go:build race

package enginetest

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put into it, so a pooled scratch cannot be counted on to come back.
const raceEnabled = true
