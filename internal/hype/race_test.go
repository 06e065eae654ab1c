//go:build race

package hype_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
