package main

import (
	"os/exec"
	"syscall"
)

// dieWithTest has the kernel SIGKILL cmd's process once the test binary
// dies, which also covers a -timeout panic that skips t.Cleanup.
func dieWithTest(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
