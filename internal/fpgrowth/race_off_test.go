//go:build !race

package fpgrowth

const raceEnabled = false
