//go:build race

package daemon

// raceEnabled reports a -race build.
const raceEnabled = true
