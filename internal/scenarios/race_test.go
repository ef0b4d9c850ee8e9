//go:build race

package scenarios

// raceEnabled reports a race-detector build, whose instrumentation
// allocates on its own and voids allocation counts.
const raceEnabled = true
