//go:build !race

package client

// raceEnabled reports whether the race detector is active. Scheduling
// under it is not representative, so burst-size assertions skip.
const raceEnabled = false
