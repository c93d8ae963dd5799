//go:build race

package mining_test

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is put into it, so allocation counts through a pool mean nothing.
const raceEnabled = true
