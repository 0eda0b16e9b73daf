//go:build race

package wiring

// raceAllocs is the allocation the race detector adds to a Trigger call.
const raceAllocs = 1
