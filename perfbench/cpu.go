package main

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time the process has used, user and system,
// over all its threads. On a virtual machine whose kernel accounts steal
// time (Linux with paravirtual time accounting), time the hypervisor gives
// to other guests is not counted, where it is counted in wall time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
