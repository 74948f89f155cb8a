package session

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"wise/internal/core"
	"wise/internal/features"
	"wise/internal/gen"
	"wise/internal/kernels"
	"wise/internal/machine"
	"wise/internal/matrix"
)

// methodOf returns the first method of the model space with the given kind.
func methodOf(t *testing.T, kind kernels.Kind) kernels.Method {
	t.Helper()
	for _, m := range kernels.ModelSpace(machine.Scaled()) {
		if m.Kind == kind {
			return m
		}
	}
	t.Fatalf("no %v method in the model space", kind)
	return kernels.Method{}
}

// packedPrepared is testPrepared for m with a selection of method and its
// format built eagerly, as the server's inspector pass builds it.
func packedPrepared(m *matrix.CSR, method kernels.Method) *Prepared {
	return &Prepared{M: m, Feat: features.Extract(m, features.DefaultConfig()),
		Sel: core.Selection{Method: method}, GenID: "g1", Format: kernels.Build(m, method, 0)}
}

// heldMatrix reads the CSR an entry holds beside its format.
func heldMatrix(e *Entry) *matrix.CSR {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m
}

// TestPackedEntryHoldsNoCSR checks that a packed session keeps its pack as
// the only copy of its matrix: at insert, and after a rehydrated entry's
// first Exec rebuilds the pack. ResidentBytes follows what is held, and an
// eviction takes the evicted entry's bytes off it.
func TestPackedEntryHoldsNoCSR(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	m := triMatrix(200, 1)
	p := packedPrepared(m, methodOf(t, kernels.SellCR))
	pack := p.Format.(*kernels.SRVPack)
	s1 := mustOpen(t, Config{MaxBytes: 1 << 20, SpillDir: dir})
	e, _, err := s1.GetOrCreate(ctx, "packed", buildOf(p, nil))
	if err != nil {
		t.Fatal(err)
	}
	if heldMatrix(e) != nil {
		t.Error("packed entry holds its CSR after insert")
	}
	if got := s1.Stats().ResidentBytes; got != pack.Bytes() {
		t.Errorf("ResidentBytes = %d after a packed insert, want the pack's %d", got, pack.Bytes())
	}
	if e.Shape() != m.Shape() {
		t.Errorf("Shape = %+v, want %+v", e.Shape(), m.Shape())
	}
	if !m.Equal(e.Matrix()) {
		t.Error("Matrix of a packed entry differs from the uploaded matrix")
	}
	s1.Release(e)

	s2 := mustOpen(t, Config{MaxBytes: preparedCost(m) + preparedCost(m)/2, SpillDir: dir})
	e, ok := s2.Acquire("packed")
	if !ok {
		t.Fatal("packed session not rehydrated")
	}
	if heldMatrix(e) == nil || s2.Stats().ResidentBytes != csrBytes(m) {
		t.Fatalf("rehydrated entry should hold its CSR and no format: ResidentBytes %d, CSR %d",
			s2.Stats().ResidentBytes, csrBytes(m))
	}
	checkExec(t, s2, e)
	if heldMatrix(e) != nil {
		t.Error("rehydrated entry holds its CSR after the first Exec built its pack")
	}
	if got := s2.Stats().ResidentBytes; got != pack.Bytes() {
		t.Errorf("ResidentBytes = %d after the rebuild, want the pack's %d", got, pack.Bytes())
	}
	s2.Release(e)
	// The budget holds one session: a second upload evicts the first.
	other, _, err := s2.GetOrCreate(ctx, "csr", buildOf(testPrepared(200, 2), nil))
	if err != nil {
		t.Fatal(err)
	}
	s2.Release(other)
	if st := s2.Stats(); st.Evictions != 1 || st.ResidentBytes != csrBytes(other.Matrix()) {
		t.Errorf("after evicting the packed session: %d evictions, ResidentBytes %d, want 1 and %d",
			st.Evictions, st.ResidentBytes, csrBytes(other.Matrix()))
	}
}

// TestRefreshMovesPackedSession moves a packed session to another packed
// method and then to CSR. Each move converts once, from the CSR rebuilt out
// of the old pack, and computes the bits a fresh build of the original
// matrix computes.
func TestRefreshMovesPackedSession(t *testing.T) {
	ctx := context.Background()
	m := gen.RMAT(rand.New(rand.NewSource(26)), 10, 8, gen.MedSkew)
	s := mustOpen(t, Config{MaxBytes: 1 << 24})
	e, _, err := s.GetOrCreate(ctx, "fp", buildOf(packedPrepared(m, methodOf(t, kernels.SellCR)), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(e)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1 + float64(i%13)/7
	}
	converts := s.Stats().Converts
	for i, method := range []kernels.Method{methodOf(t, kernels.LAV), csrMethod} {
		genID := string(rune('h' + i))
		s.Refresh(e, genID, func(features.Features) core.Selection { return core.Selection{Method: method} })
		got, err := s.Exec(ctx, e, x, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := kernels.Iterate(ctx, kernels.Build(m, method, 0), m.Rows, x, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		for r := range want {
			if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
				t.Fatalf("after the move to %s: y[%d] = %v, a fresh build gives %v", method, r, got[r], want[r])
			}
		}
		converts++
		if st := s.Stats(); st.Converts != converts {
			t.Fatalf("after the move to %s: %d converts, want %d", method, st.Converts, converts)
		}
	}
	if heldMatrix(e) == nil || s.Stats().ResidentBytes != csrBytes(m) {
		t.Errorf("a CSR session should hold just its CSR: ResidentBytes %d, want %d", s.Stats().ResidentBytes, csrBytes(m))
	}
	if !m.Equal(heldMatrix(e)) {
		t.Error("the CSR rebuilt through two packs differs from the uploaded matrix")
	}
}

// TestPackedSessionHeap checks what a packed session costs on the heap:
// after a GC, a store holding one packed session of a 2^14-row matrix
// retains less than 1.5 times the pack's bytes. A store that kept the CSR
// beside the pack would retain about twice them.
func TestPackedSessionHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := mustOpen(t, Config{MaxBytes: 1 << 30})
	packBytes := func() int64 {
		m := gen.Banded(rand.New(rand.NewSource(1)), 1<<14, []int{-7, -6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7})
		p := packedPrepared(m, methodOf(t, kernels.SellCR))
		e, _, err := s.GetOrCreate(context.Background(), "fp", buildOf(p, nil))
		if err != nil {
			t.Fatal(err)
		}
		s.Release(e)
		return p.Format.(*kernels.SRVPack).Bytes()
	}()
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(s)
	if limit := packBytes + packBytes/2; retained >= limit {
		t.Fatalf("store retains %d heap bytes for one packed session, want < %d (1.5x the pack's %d)", retained, limit, packBytes)
	}
}

// TestPackedSessionConcurrent races promotions of one packed session
// between packed and CSR methods against executions and Matrix and Shape
// readers (run it with -race). Every product and every reconstruction must
// match the uploaded matrix, and ResidentBytes must end at what the entry
// holds.
func TestPackedSessionConcurrent(t *testing.T) {
	ctx := context.Background()
	m := gen.RMAT(rand.New(rand.NewSource(7)), 9, 8, gen.MedSkew)
	methods := []kernels.Method{methodOf(t, kernels.SellCR), methodOf(t, kernels.LAV), csrMethod}
	s := mustOpen(t, Config{MaxBytes: 1 << 24})
	e, _, err := s.GetOrCreate(ctx, "fp", buildOf(packedPrepared(m, methods[0]), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(e)
	x := matrix.Ones(m.Cols)
	want := make([]float64, m.Rows)
	m.SpMV(want, x)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (w + i) % 3 {
				case 0:
					method := methods[(w+i)%len(methods)]
					s.Refresh(e, fmt.Sprintf("g%d-%d", w, i), func(features.Features) core.Selection {
						return core.Selection{Method: method}
					})
				case 1:
					y, err := s.Exec(ctx, e, x, 1, 2)
					if err != nil {
						t.Errorf("Exec: %v", err)
						return
					}
					if d := matrix.MaxAbsDiff(y, want); d > 1e-9 {
						t.Errorf("Exec diverges from the reference by %g", d)
					}
				case 2:
					if !m.Equal(e.Matrix()) || e.Shape() != m.Shape() {
						t.Errorf("Matrix differs from the uploaded matrix, or Shape %+v does", e.Shape())
					}
				}
			}
		}(w)
	}
	wg.Wait()
	e.mu.Lock()
	held := residentBytes(e.m, e.format)
	e.mu.Unlock()
	if got := s.Stats().ResidentBytes; got != held {
		t.Errorf("ResidentBytes = %d, the entry holds %d", got, held)
	}
}
