//go:build linux

package wire

import (
	"os"
	"syscall"
	"testing"
)

// TestSocketPairIsCloseOnExec: both ends of a worker's pair carry
// FD_CLOEXEC the moment socketPair returns them, so no process forked
// later — a sibling worker of this pool or of a concurrent one — inherits
// a copy.
func TestSocketPairIsCloseOnExec(t *testing.T) {
	ours, theirs, err := socketPair()
	if err != nil {
		t.Fatal(err)
	}
	defer ours.Close()
	defer theirs.Close()
	for _, f := range []*os.File{ours, theirs} {
		flags, _, errno := syscall.Syscall(syscall.SYS_FCNTL, f.Fd(), syscall.F_GETFD, 0)
		if errno != 0 {
			t.Fatal(errno)
		}
		if flags&syscall.FD_CLOEXEC == 0 {
			t.Errorf("socket pair end %d is not close-on-exec", f.Fd())
		}
	}
}
