//go:build race

package diet

// raceDetector reports whether the tests run under the race detector, whose
// sync.Pool drops a quarter of what it is handed on purpose: a test that
// counts on a recycled request frame cannot count there.
const raceDetector = true
