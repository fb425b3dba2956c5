//go:build !linux

package webfountain

// yieldThread is a no-op where sched_yield is not available.
func yieldThread() {}
