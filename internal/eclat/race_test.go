//go:build race

package eclat

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a quarter of its puts on purpose, so a test of what the pooled
// run scratch saves cannot hold under it.
const raceEnabled = true
