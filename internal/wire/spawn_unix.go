//go:build unix

package wire

import (
	"net"
	"os"
	"os/exec"
	"syscall"
)

// spawn starts cmd holding one end of a fresh socket pair as its
// descriptor parentFD and returns the other end as the parent's connection.
func spawn(cmd *exec.Cmd) (net.Conn, error) {
	ours, theirs, err := socketPair()
	if err != nil {
		return nil, err
	}
	defer theirs.Close() // the child holds its own copy once Start returns
	c, err := net.FileConn(ours)
	ours.Close()
	if err != nil {
		return nil, err
	}
	cmd.ExtraFiles = []*os.File{theirs}
	if err := cmd.Start(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// socketPair makes a connected pair of Unix-domain stream sockets, both
// close-on-exec from birth: they are made and marked under
// syscall.ForkLock, which every fork in this process takes for writing, so
// no process spawned concurrently can inherit a copy. A stray copy of the
// parent's end would keep a worker from ever seeing EOF when the parent
// lets go; a stray copy of a worker's end would hide that worker's death
// from the parent's reader. ExtraFiles hands a child its end regardless of
// the flag.
func socketPair() (ours, theirs *os.File, err error) {
	syscall.ForkLock.RLock()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err == nil {
		syscall.CloseOnExec(fds[0])
		syscall.CloseOnExec(fds[1])
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return nil, nil, os.NewSyscallError("socketpair", err)
	}
	return os.NewFile(uintptr(fds[0]), "wire-parent"), os.NewFile(uintptr(fds[1]), "wire-worker"), nil
}
