package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// CPU placement. On the recording machine (two virtual CPUs of a shared
// host) where a thread runs decides how fast it is: the disk's
// completion interrupts all land on one CPU, and an fsync issued from
// that CPU returns in 0.27 ms against 0.40 ms from the other, while a
// cached query took 0.23 or 0.29 ms depending on which CPUs the server's
// and the generator's threads happened to share. Left to the scheduler,
// a run fell into one of these regimes by chance and stayed there, and
// runs on identical inputs differed by 30 %. So nothing is left to the
// scheduler: the load generator runs on the first CPU the benchmark may
// use and the server on all the others, which also keeps the number of
// busy threads at the number of CPUs. With a single CPU there is nothing
// to divide and nothing is pinned.

// cpuMask is the kernel's CPU set for the sched_*affinity calls.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// placement is the split of the CPUs the benchmark may use; pinned is
// false, and nothing is moved, when there is only one CPU or the kernel
// refuses the call.
var placement = func() (p struct {
	generator, server cpuMask
	pinned            bool
}) {
	allowed, err := getAffinity(0)
	if err != nil {
		return p
	}
	n := 0
	for cpu := 0; cpu < len(allowed)*64; cpu++ {
		if !allowed.has(cpu) {
			continue
		}
		if n == 0 {
			p.generator.set(cpu)
		} else {
			p.server.set(cpu)
		}
		n++
	}
	p.pinned = n >= 2
	return p
}()

func (m *cpuMask) String() string {
	var cpus []string
	for cpu := 0; cpu < len(m)*64; cpu++ {
		if m.has(cpu) {
			cpus = append(cpus, strconv.Itoa(cpu))
		}
	}
	return strings.Join(cpus, ",")
}

// placementNote is the placement as recorded with every run.
func placementNote() string {
	if !placement.pinned {
		return "not pinned"
	}
	return "generator on cpu " + placement.generator.String() + ", server on cpu " + placement.server.String()
}

// pinProcess moves every thread of this process onto the CPUs in m;
// threads started later inherit the mask from the thread starting them.
// Two passes, because a thread may be born while the first one runs.
func pinProcess(m cpuMask) {
	if !placement.pinned {
		return
	}
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return
		}
		for _, t := range tasks {
			if tid, err := strconv.Atoi(t.Name()); err == nil {
				setAffinity(tid, m) //nolint:errcheck // a thread that exited meanwhile
			}
		}
	}
}

// startPinned starts a child process on the server's CPUs: the child
// inherits the mask of the thread that forks it.
func startPinned(start func() error) error {
	if !placement.pinned {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mine, err := getAffinity(0)
	if err != nil {
		return start()
	}
	if err := setAffinity(0, placement.server); err != nil {
		return start()
	}
	defer setAffinity(0, mine) //nolint:errcheck // restoring a mask the kernel just gave us
	return start()
}
