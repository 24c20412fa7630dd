//go:build !race

package blinktree

// raceEnabled reports whether the race detector is active; long
// churn tests scale their op counts down under its slowdown.
const raceEnabled = false
