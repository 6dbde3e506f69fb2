//go:build race

package heap

const raceEnabled = true
