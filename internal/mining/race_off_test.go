//go:build !race

package mining_test

const raceEnabled = false
