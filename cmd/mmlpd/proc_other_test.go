//go:build !linux

package main

import "os/exec"

// dieWithTest is a no-op off Linux, which has no parent-death signal;
// there only t.Cleanup stops a started daemon.
func dieWithTest(*exec.Cmd) {}
