//go:build race

package eclat

// raceEnabled gates allocation assertions: the race detector's
// instrumentation changes allocation behaviour, so they only run in
// non-race builds (the code paths still execute under race).
const raceEnabled = true
