package main

import "syscall"

// childAttr makes a measured child die with the benchmark process, so a
// run that is killed leaves no process behind to load the next one.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
