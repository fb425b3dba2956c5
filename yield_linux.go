package webfountain

import "syscall"

// yieldThread gives up the CPU to any other runnable thread (sched_yield),
// such as the one waiting in the network poller on a lent P. Unlike
// runtime.Gosched it reaches the kernel scheduler.
func yieldThread() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) } //nolint:errcheck // sched_yield cannot fail
