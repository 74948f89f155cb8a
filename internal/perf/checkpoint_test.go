package perf

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wise/internal/gen"
	"wise/internal/obs"
	"wise/internal/resilience/faultinject"
)

func checkpointCorpus(t *testing.T) []gen.Labeled {
	t.Helper()
	corpus := gen.Corpus(gen.CorpusConfig{
		Seed:      7,
		RowScales: []float64{8},
		Degrees:   []float64{4, 8},
		MaxNNZ:    1 << 20,
		SciCount:  3,
	})
	if len(corpus) < 5 {
		t.Fatalf("test corpus too small: %d matrices", len(corpus))
	}
	return corpus
}

// Kill-and-resume determinism: a run interrupted mid-labeling (via fault
// injection, the same cancellation path SIGINT takes) and resumed from its
// checkpoint must produce a byte-identical labels file to an uninterrupted
// run.
func TestLabelCorpusRunCheckpointResumeIdentical(t *testing.T) {
	corpus := checkpointCorpus(t)
	dir := t.TempDir()

	reference := filepath.Join(dir, "reference.labels")
	refCfg := smallLabelConfig()
	refRun, err := LabelCorpusRun(context.Background(), refCfg, corpus)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if len(refRun.Labels) != len(corpus) || len(refRun.Quarantined) != 0 {
		t.Fatalf("uninterrupted run: %d labels, %d quarantined", len(refRun.Labels), len(refRun.Quarantined))
	}
	if err := SaveLabels(reference, refRun.Labels); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the third completed matrix. Flush every
	// completion so the checkpoint holds everything completed so far.
	checkpoint := filepath.Join(dir, "run.checkpoint")
	cfg := smallLabelConfig()
	cfg.Checkpoint = checkpoint
	cfg.CheckpointEvery = 1
	if err := faultinject.Configure("perf.label.interrupt:error:after=2", 1); err != nil {
		t.Fatal(err)
	}
	run, err := LabelCorpusRun(context.Background(), cfg, corpus)
	faultinject.Disable()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run err = %v, want ErrInterrupted", err)
	}
	if len(run.Labels) == 0 || len(run.Labels) >= len(corpus) {
		t.Fatalf("interrupted run labeled %d of %d, want a strict partial", len(run.Labels), len(corpus))
	}
	if _, err := os.Stat(checkpoint); err != nil {
		t.Fatalf("no checkpoint after interrupt: %v", err)
	}

	// Resume: same checkpoint, no faults.
	resumeCfg := smallLabelConfig()
	resumeCfg.Checkpoint = checkpoint
	resumed, err := LabelCorpusRun(context.Background(), resumeCfg, corpus)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumed.Resumed == 0 {
		t.Fatal("resumed run restored nothing from the checkpoint")
	}
	if len(resumed.Labels) != len(corpus) {
		t.Fatalf("resumed run labeled %d of %d", len(resumed.Labels), len(corpus))
	}

	final := filepath.Join(dir, "final.labels")
	if err := SaveLabels(final, resumed.Labels); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(reference)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed labels file differs from uninterrupted run")
	}
}

// A labeling panic on one matrix must quarantine that matrix — with its
// name, class, and error — and leave the rest of the corpus labeled.
func TestLabelCorpusRunQuarantinesPanic(t *testing.T) {
	corpus := checkpointCorpus(t)
	cfg := smallLabelConfig() // Workers: 1, so fault hit order is corpus order
	before := obs.NewCounter("perf.matrices_quarantined").Value()
	if err := faultinject.Configure("perf.label.matrix:panic:after=1", 1); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	run, err := LabelCorpusRun(context.Background(), cfg, corpus)
	if err != nil {
		t.Fatalf("run failed instead of quarantining: %v", err)
	}
	if len(run.Quarantined) != 1 {
		t.Fatalf("quarantined %d matrices, want 1: %+v", len(run.Quarantined), run.Quarantined)
	}
	q := run.Quarantined[0]
	if q.Name != corpus[1].Name || q.Class != corpus[1].Class {
		t.Fatalf("quarantined %q/%s, want %q/%s", q.Name, q.Class, corpus[1].Name, corpus[1].Class)
	}
	if !strings.Contains(q.Err, "panicked") {
		t.Fatalf("quarantine error %q does not mention the panic", q.Err)
	}
	if len(run.Labels) != len(corpus)-1 {
		t.Fatalf("labeled %d, want %d (all but the quarantined one)", len(run.Labels), len(corpus)-1)
	}
	for _, l := range run.Labels {
		if l.Name == q.Name {
			t.Fatal("quarantined matrix leaked into the labeled output")
		}
	}
	if got := obs.NewCounter("perf.matrices_quarantined").Value(); got != before+1 {
		t.Fatalf("quarantine counter moved %d, want +1", got-before)
	}
}

// An overdue matrix (injected delay beyond the per-matrix deadline) is
// quarantined with a deadline error; the run completes. The deadline sits
// far above a normal matrix's labeling time (a few ms) so that CPU
// starvation on a shared host cannot push healthy matrices past it, and far
// below the injected 2 s delay so the elapsed check still tells abandoning
// from waiting.
func TestLabelCorpusRunDeadline(t *testing.T) {
	corpus := checkpointCorpus(t)
	cfg := smallLabelConfig()
	cfg.MatrixDeadline = 250 * time.Millisecond
	if err := faultinject.Configure("perf.label.matrix:delay:d=2s:after=2", 1); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	start := time.Now()
	run, err := LabelCorpusRun(context.Background(), cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Quarantined) != 1 {
		t.Fatalf("quarantined %d, want 1: %+v", len(run.Quarantined), run.Quarantined)
	}
	if !strings.Contains(run.Quarantined[0].Err, "deadline") {
		t.Fatalf("quarantine error %q does not mention the deadline", run.Quarantined[0].Err)
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("run waited %v for the overdue matrix instead of abandoning it", elapsed)
	}
	if len(run.Labels) != len(corpus)-1 {
		t.Fatalf("labeled %d, want %d", len(run.Labels), len(corpus)-1)
	}
}

// External context cancellation interrupts the run and flushes the
// checkpoint, mirroring SIGINT/SIGTERM handling in the CLIs.
func TestLabelCorpusRunExternalCancel(t *testing.T) {
	corpus := checkpointCorpus(t)
	cfg := smallLabelConfig()
	cfg.Checkpoint = filepath.Join(t.TempDir(), "cancel.checkpoint")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run, err := LabelCorpusRun(ctx, cfg, corpus)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(run.Labels) == len(corpus) {
		t.Fatal("pre-cancelled run still labeled everything")
	}
	if _, err := os.Stat(cfg.Checkpoint); err != nil {
		t.Fatalf("no checkpoint flushed on cancellation: %v", err)
	}
}

// A checkpoint from a partially overlapping corpus resumes the overlap and
// labels the rest.
func TestLabelCorpusRunResumeSubset(t *testing.T) {
	corpus := checkpointCorpus(t)
	cfg := smallLabelConfig()
	full, err := LabelCorpusRun(context.Background(), cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := filepath.Join(t.TempDir(), "subset.checkpoint")
	if err := SaveLabels(checkpoint, full.Labels[:2]); err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = checkpoint
	run, err := LabelCorpusRun(context.Background(), cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if run.Resumed != 2 {
		t.Fatalf("resumed %d, want 2", run.Resumed)
	}
	if len(run.Labels) != len(corpus) {
		t.Fatalf("labeled %d, want %d", len(run.Labels), len(corpus))
	}
	for i := range run.Labels {
		if run.Labels[i].Name != full.Labels[i].Name {
			t.Fatal("resumed labels out of corpus order")
		}
	}
}
