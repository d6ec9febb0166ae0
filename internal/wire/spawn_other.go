//go:build !unix

package wire

import (
	"errors"
	"net"
	"os/exec"
)

// spawn needs Unix-domain socket pairs, which this system lacks.
func spawn(*exec.Cmd) (net.Conn, error) {
	return nil, errors.New("worker processes need a Unix system")
}
