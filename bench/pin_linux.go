package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

type cpuMask [1024 / 64]uint64

// allowed is the CPU mask the process started with; pinToOneCPU saves it so
// that onAllCPUs can give it back for the one unpinned phase.
var allowed cpuMask

// setAffinity puts every thread of the process on the given CPUs. Threads
// created later inherit the mask from their creator, so it is set on every
// thread that exists now.
func setAffinity(mask *cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that exited since the listing is not an error.
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask))); errno != 0 && errno != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
		}
	}
	return nil
}

// firstCPU is the mask of the lowest CPU in allowed, and that CPU's number.
func firstCPU() (cpuMask, int) {
	var one cpuMask
	for i, word := range allowed {
		for bit := 0; bit < 64; bit++ {
			if word&(1<<bit) != 0 {
				one[i] = 1 << bit
				return one, i*64 + bit
			}
		}
	}
	return one, -1
}

// pinToOneCPU confines the whole process to the first CPU it is allowed on
// and runs Go on one P. On a small virtual machine the cost of a loopback
// exchange depends on which CPUs its two ends happen to run on (measured
// here: 100 µs or 190 µs for one bare rpc exchange, flipping every 10–15 s),
// which no length of run averages out; on one CPU the same exchange reads
// 93–103 µs.
func pinToOneCPU() (cpu int, err error) {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	one, cpu := firstCPU()
	if cpu < 0 {
		return 0, fmt.Errorf("empty CPU affinity mask")
	}
	if err := setAffinity(&one); err != nil {
		return 0, err
	}
	runtime.GOMAXPROCS(1)
	return cpu, nil
}

// onAllCPUs runs fn with the process back on every CPU it started with and
// one P per CPU, then pins it again: the one phase of a traced run whose
// number a multi-core change (a lock, a parallel fan-out) can move. A
// process that was never pinned (the tests) just runs fn.
func onAllCPUs(fn func()) error {
	one, cpu := firstCPU()
	if cpu < 0 {
		fn()
		return nil
	}
	if err := setAffinity(&allowed); err != nil {
		return err
	}
	procs := runtime.GOMAXPROCS(runtime.NumCPU())
	fn()
	runtime.GOMAXPROCS(procs)
	return setAffinity(&one)
}
