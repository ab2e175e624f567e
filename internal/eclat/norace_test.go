//go:build !race

package eclat

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
