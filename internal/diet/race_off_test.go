//go:build !race

package diet

// raceDetector reports whether the tests run under the race detector.
const raceDetector = false
