//go:build !linux

package main

import "runtime"

// pinToOneCPU has no affinity call to make here; it still runs Go on one P.
func pinToOneCPU() (cpu int, err error) {
	runtime.GOMAXPROCS(1)
	return 0, nil
}

// onAllCPUs runs fn on one P per CPU, then goes back to what it had.
func onAllCPUs(fn func()) error {
	procs := runtime.GOMAXPROCS(runtime.NumCPU())
	fn()
	runtime.GOMAXPROCS(procs)
	return nil
}
