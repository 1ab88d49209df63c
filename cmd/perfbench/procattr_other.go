//go:build !linux

package main

import "syscall"

// childAttr is nil where the kernel cannot tie a child's life to its
// parent's.
func childAttr() *syscall.SysProcAttr { return nil }
