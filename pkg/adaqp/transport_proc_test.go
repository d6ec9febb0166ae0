package adaqp_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/pkg/adaqp"
)

// TestProcBackendLossParity pins the proc-sharded backend's numerics to
// the in-process reference through the public API: identical seeds must
// give bit-identical loss curves even though every codec payload is
// serialized into frames and routed through real worker processes over
// Unix-domain sockets. Covered on a quickstart-size deployment and a
// larger multi-part one with a bigger worker fleet.
func TestProcBackendLossParity(t *testing.T) {
	ds := adaqp.MustLoadDataset("tiny", 1)
	deployments := []struct {
		name string
		opts []adaqp.Option
		proc adaqp.TransportSpec
	}{
		{
			name: "quickstart-4part",
			opts: []adaqp.Option{adaqp.WithParts(4)},
			proc: adaqp.TransportSpec{Name: adaqp.TransportProcSharded},
		},
		{
			name: "multipart-6part-3workers",
			opts: []adaqp.Option{adaqp.WithParts(6)},
			proc: adaqp.TransportSpec{Name: adaqp.TransportProcSharded, Workers: 3},
		},
	}
	methods := []adaqp.Method{adaqp.Vanilla, adaqp.AdaQP}

	for _, dep := range deployments {
		t.Run(dep.name, func(t *testing.T) {
			base := append([]adaqp.Option{
				adaqp.WithHidden(32),
				adaqp.WithEpochs(6),
				adaqp.WithEvalEvery(3),
				adaqp.WithReassignPeriod(5),
				adaqp.WithGroupSize(10),
			}, dep.opts...)
			eng, err := adaqp.New(ds, base...)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range methods {
				ref, err := eng.Run(adaqp.WithMethod(m))
				if err != nil {
					t.Fatalf("method %v in-process run: %v", m, err)
				}
				got, err := eng.Run(adaqp.WithMethod(m), adaqp.WithTransport(dep.proc))
				if err != nil {
					t.Fatalf("method %v proc-sharded run: %v", m, err)
				}
				if len(got.Epochs) != len(ref.Epochs) {
					t.Fatalf("method %v: epoch count %d vs %d", m, len(got.Epochs), len(ref.Epochs))
				}
				for i := range ref.Epochs {
					if got.Epochs[i].Loss != ref.Epochs[i].Loss {
						t.Errorf("method %v epoch %d: proc-sharded loss %.9f != in-process %.9f (must be bit-identical)",
							m, i, got.Epochs[i].Loss, ref.Epochs[i].Loss)
					}
				}
				if got.FinalTest != ref.FinalTest {
					t.Errorf("method %v: final test accuracy %.6f != %.6f", m, got.FinalTest, ref.FinalTest)
				}
			}
		})
	}
}

// TestProcJobIgnoresHostileSocketDir: a job's socket_dir names a path the
// daemon's client picked, and a proc-sharded run creates nothing on the
// filesystem — so the job trains to completion and the path never appears.
func TestProcJobIgnoresHostileSocketDir(t *testing.T) {
	client := filepath.Join(t.TempDir(), "client")
	sched, err := adaqp.NewScheduler(adaqp.WithMaxConcurrentSessions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Drain(context.Background())
	h, err := sched.SubmitSpec(adaqp.JobSpec{
		Dataset: "tiny", Epochs: 1,
		Transport: adaqp.TransportProcSharded,
		SocketDir: filepath.Join(client, "made"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); st != adaqp.SessionDone {
		t.Fatalf("job ended %v, want %v", st, adaqp.SessionDone)
	}
	if _, err := os.Stat(client); !os.IsNotExist(err) {
		t.Fatalf("the job's socket_dir was acted on: stat %s = %v", client, err)
	}
}
