package features

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wise/internal/gen"
)

// countdownCtx is a context whose Err turns to context.Canceled after a set
// number of polls, so a test can cancel an extraction inside its walks.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(polls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(polls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestExtractCtxCancelMidWalk cancels extractions inside their walks while
// others run to completion on the same pooled scratch. Every cancelled call
// must return the context's error, every complete one the reference vector
// bit for bit, and once the calls return no walk goroutine may be left.
// Under -race, a walk that wrote its scratch after returning it to the pool
// would race with the next extraction that took it.
func TestExtractCtxCancelMidWalk(t *testing.T) {
	m := gen.RMATRows(rand.New(rand.NewSource(5)), 1<<15, 8, gen.MedSkew)
	want := Extract(m, DefaultConfig())
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range 8 {
				if (g+n)%2 == 0 {
					// One poll before the walks start; then each walk
					// polls per 4096 rows or per tile row.
					_, err := ExtractCtx(newCountdownCtx(int64(2+n)), m, DefaultConfig())
					if !errors.Is(err, context.Canceled) {
						t.Errorf("cancelled extraction: err = %v, want context.Canceled", err)
					}
					continue
				}
				got, err := ExtractCtx(context.Background(), m, DefaultConfig())
				if err != nil {
					t.Errorf("extraction: %v", err)
					continue
				}
				for k := range want.Values {
					if math.Float64bits(got.Values[k]) != math.Float64bits(want.Values[k]) {
						t.Errorf("%s = %v after cancelled extractions, want %v", want.Names[k], got.Values[k], want.Values[k])
					}
				}
			}
		}()
	}
	wg.Wait()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after every extraction returned, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestColSideScratchSurvivesCancel reuses one scratch across a cancelled
// column walk and then matrices of other widths: the epochs the cancelled
// walk stamped must not be mistaken for the next walk's.
func TestColSideScratchSurvivesCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	big := gen.RMATRows(rng, 1<<12, 8, gen.MedSkew)
	sc := new(colScratch)
	bt := newTiling(big.Rows, big.Cols, 64)
	if _, err := colSideCounts(newCountdownCtx(20), big, bt, 0, bt.kr, sc); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled walk: err = %v, want context.Canceled", err)
	}
	for _, m := range []*struct {
		rows int
		k    int
	}{{1 << 12, 64}, {300, 16}, {1 << 12, 4}, {1 << 11, 64}} {
		mat := gen.RMATRows(rng, m.rows, 6, gen.MedSkew)
		tl := newTiling(mat.Rows, mat.Cols, m.k)
		got, err := colSideCounts(context.Background(), mat, tl, 0, tl.kr, sc)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := colSideCounts(context.Background(), mat, tl, 0, tl.kr, new(colScratch))
		if err != nil {
			t.Fatal(err)
		}
		if got != fresh {
			t.Errorf("%d rows, K=%d: reused scratch counts %v, fresh %v", m.rows, m.k, got, fresh)
		}
	}
}
