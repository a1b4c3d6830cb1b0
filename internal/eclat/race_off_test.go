//go:build !race

package eclat

const raceEnabled = false
