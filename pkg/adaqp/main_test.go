package adaqp_test

import (
	"os"
	"testing"

	"repro/pkg/adaqp"
)

// TestMain lets this test binary serve as its own proc-sharded worker:
// tests running the proc-sharded backend re-execute the running binary to
// get their worker processes (MaybeWorker never returns in that
// mode).
func TestMain(m *testing.M) {
	adaqp.MaybeWorker()
	os.Exit(m.Run())
}
