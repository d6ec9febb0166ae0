//go:build unix

package core

import (
	goruntime "runtime"
	"syscall"
	"testing"
	"time"
)

// TestProcIdleFleetReapedAfterLinger: a fleet handed back by a healthy Run
// waits idle for fleetLinger, then is shut down, leaving no child process
// and no goroutine behind.
func TestProcIdleFleetReapedAfterLinger(t *testing.T) {
	const workers = 2
	shutIdleFleets()
	baseline := goruntime.NumGoroutine()
	rt := newProcRuntime(TransportSpec{Parts: 3, Workers: workers})
	if err := rt.Run(1, ringBody(3, 2)); err != nil {
		t.Fatal(err)
	}
	if idleFleet(workers) == nil {
		t.Fatal("healthy run handed no fleet back")
	}
	time.Sleep(fleetLinger)
	expectNoNewGoroutines(t, baseline)
	if wf := idleFleet(workers); wf != nil {
		t.Errorf("fleet %v still idle after its linger", wf.pool.PIDs())
	}
	var ws syscall.WaitStatus
	if pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil); err != syscall.ECHILD {
		t.Errorf("a child process outlives the linger: wait4 = %d, %v", pid, err)
	}
}
