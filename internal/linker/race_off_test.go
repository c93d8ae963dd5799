//go:build !race

package linker

const raceEnabled = false
