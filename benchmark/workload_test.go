package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"wise/internal/matrix"
	"wise/internal/session"
)

// shrink returns a copy of w with a pool of 256- to 512-row matrices, for
// tests that must run in seconds.
func shrink(w *workload) *workload {
	c := *w
	c.pool = grid(8, 9, 2)
	if c.mix == mixWarm {
		c.pool = c.pool[:4]
	}
	return &c
}

func TestScheduleAndDigestDeterministic(t *testing.T) {
	model := []byte("model fixture")
	for _, w := range workloads() {
		w := shrink(w)
		a, b := newSchedule(w, 3), newSchedule(w, 3)
		for c := 0; c < w.clients; c++ {
			for i := 0; i < 300; i++ {
				if oa, ob := a.closed(c, i), b.closed(c, i); oa != ob {
					t.Fatalf("%s: client %d op %d differs between schedules of one seed: %+v vs %+v", w.name, c, i, oa, ob)
				}
			}
		}
		bodiesA, err := w.bodies(3)
		if err != nil {
			t.Fatal(err)
		}
		bodiesB, err := w.bodies(3)
		if err != nil {
			t.Fatal(err)
		}
		bodiesC, err := w.bodies(4)
		if err != nil {
			t.Fatal(err)
		}
		d3 := digest(w, 3, model, bodiesA)
		if d := digest(w, 3, model, bodiesB); d != d3 {
			t.Errorf("%s: seed 3 digests %s and %s differ", w.name, d3, d)
		}
		if d := digest(w, 4, model, bodiesC); d == d3 {
			t.Errorf("%s: seeds 3 and 4 share digest %s", w.name, d)
		}
		if d := digest(w, 3, []byte("another model"), bodiesA); d == d3 {
			t.Errorf("%s: the digest does not cover the model", w.name)
		}
	}
}

func TestIngestReadsTargetRecentUploads(t *testing.T) {
	w := findWorkload("ingest-mixed")
	s := newSchedule(w, 1)
	for c := 0; c < w.clients; c++ {
		uploads := 0
		for i := 0; i < 400; i++ {
			o := s.closed(c, i)
			if i%(1+readsPerUpload) == 0 {
				if o.kind != opUpload || o.nonce != uploads {
					t.Fatalf("client %d op %d = %+v, want upload %d", c, i, o, uploads)
				}
				uploads++
				continue
			}
			if o.kind != opSpMV || o.back < 0 || o.back >= min(ringSize, uploads) {
				t.Fatalf("client %d op %d = %+v reads outside the %d newest of %d uploads", c, i, o, ringSize, uploads)
			}
		}
	}
}

func TestNonceBodyIsTheSameMatrixUnderANewFingerprint(t *testing.T) {
	w := shrink(findWorkload("ingest-mixed"))
	bodies, err := w.bodies(1)
	if err != nil {
		t.Fatal(err)
	}
	base := bodies[0]
	a, b := nonceBody(base, 1, 0, 0), nonceBody(base, 1, 0, 1)
	if fa, fb, f := session.Fingerprint(a), session.Fingerprint(b), session.Fingerprint(base); fa == fb || fa == f {
		t.Fatalf("nonce bodies share a fingerprint: %s %s %s", f, fa, fb)
	}
	want, err := matrix.ReadMatrixMarket(bytes.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	got, err := matrix.ReadMatrixMarket(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != want.NNZ() || matrix.MaxAbsDiff(got.Vals, want.Vals) > 0 {
		t.Fatal("the nonce comment changed the parsed matrix")
	}
}

func TestSeed1DigestMismatchFails(t *testing.T) {
	// A shrunken pool is a different input under a recorded workload name.
	w := shrink(findWorkload("cold-predict"))
	_, err := runWorkload(context.Background(), &env{modelRaw: []byte("model")}, w, 1, false, "")
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("seed-1 run of changed inputs: err %v, want a digest mismatch", err)
	}
}
