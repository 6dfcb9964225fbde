//go:build race

package core

// raceDetector reports that the tests run under the race detector, whose
// sync.Pool drops a quarter of what it is handed at random — so steady-state
// allocation guards over pooled buffers do not hold there.
const raceDetector = true
