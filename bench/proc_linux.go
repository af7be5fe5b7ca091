package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill the subprocess when the benchmark
// itself dies without running its deferred clean-up (SIGKILL by a driver's
// timeout), so no served process outlives a run.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
