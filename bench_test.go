package wise

// One testing.B benchmark per table and figure of the paper's evaluation
// (see DESIGN.md section 4 for the experiment index), plus the ablation
// benches DESIGN.md calls out and a few wall-clock benchmarks. The figure benchmarks drive internal/experiments and report the
// headline quantity of each figure as a custom metric, so `go test -bench .`
// regenerates every result. Run cmd/wise-bench for the full printed tables.

import (
	"math/rand"
	"sync"
	"testing"

	"wise/internal/costmodel"
	"wise/internal/experiments"
	"wise/internal/gen"
	"wise/internal/kernels"
	"wise/internal/machine"
	"wise/internal/matrix"
	"wise/internal/solvers"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
)

// benchContext labels a moderate corpus once and shares it across all
// figure benchmarks.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchCtxOnce.Do(func() {
		cfg := experiments.ContextConfig{
			Corpus: gen.CorpusConfig{
				Seed:      1,
				RowScales: []float64{10, 11, 12, 13},
				Degrees:   []float64{4, 16, 64},
				MaxNNZ:    1 << 21,
				SciCount:  24,
			},
		}
		benchCtx = experiments.NewContext(cfg)
	})
	return benchCtx
}

func benchTable(b *testing.B, run func(ctx *experiments.Context) *experiments.Table) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := run(ctx)
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", tab.ID)
		}
	}
}

func BenchmarkFig01FormatsExample(b *testing.B) {
	benchTable(b, experiments.Fig1Formats)
}

func BenchmarkFig02VectorizedSpeedups(b *testing.B) {
	benchTable(b, experiments.Fig2)
}

func BenchmarkFig03SchedulingPolicies(b *testing.B) {
	benchTable(b, experiments.Fig3)
}

func BenchmarkFig04FastestMethodHistogram(b *testing.B) {
	benchTable(b, experiments.Fig4)
}

func BenchmarkFig05SkewSweep(b *testing.B) {
	ctx := benchContext(b)
	cfg := experiments.SweepConfig{
		RowScales: []float64{10, 12, 14},
		Degrees:   []float64{4, 16, 64},
		MaxNNZ:    1 << 21,
		Seed:      7,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab := experiments.Fig5(ctx, cfg); len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig06LocalitySweep(b *testing.B) {
	ctx := benchContext(b)
	cfg := experiments.SweepConfig{
		RowScales: []float64{10, 12, 14},
		Degrees:   []float64{4, 16, 64},
		MaxNNZ:    1 << 21,
		Seed:      7,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab := experiments.Fig6(ctx, cfg); len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig07SciencePRatio(b *testing.B) {
	benchTable(b, experiments.Fig7)
}

func BenchmarkFig10ConfusionMatrices(b *testing.B) {
	benchTable(b, experiments.Fig10)
}

func BenchmarkFig11RandomPRatio(b *testing.B) {
	benchTable(b, experiments.Fig11)
}

func BenchmarkFig12DegreeDistribution(b *testing.B) {
	benchTable(b, experiments.Fig12)
}

func BenchmarkFig13SpeedupOverMKL(b *testing.B) {
	ctx := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig13(ctx)
		if len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkSec64InspectorExecutor(b *testing.B) {
	benchTable(b, experiments.Sec64)
}

func BenchmarkTable04TreeParameterGrid(b *testing.B) {
	benchTable(b, experiments.Table4)
}

// Ablation benches called out in DESIGN.md.

func BenchmarkAblationFeatureSets(b *testing.B) {
	benchTable(b, experiments.AblationFeatureSets)
}

func BenchmarkAblationClasses(b *testing.B) {
	benchTable(b, experiments.AblationClasses)
}

func BenchmarkAblationTieBreak(b *testing.B) {
	benchTable(b, experiments.AblationTieBreak)
}

func BenchmarkAblationFlatMemory(b *testing.B) {
	ctx := benchContext(b)
	probe := gen.CorpusConfig{
		Seed:      42,
		RowScales: []float64{10, 12},
		Degrees:   []float64{8, 32},
		MaxNNZ:    1 << 20,
		SciCount:  6,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab := experiments.AblationFlatMemory(ctx, probe); len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// Wall-clock benchmarks beside the figures: a CG solve, the Section 7
// extension against CSR, and the cost model itself. The kernel, conversion,
// extraction and selection cells live with their packages (BENCHMARKS.md).

func benchMatrix() *matrix.CSR {
	rng := rand.New(rand.NewSource(3))
	m := gen.RMATRows(rng, 1<<14, 16, gen.MedSkew)
	return gen.CapRowDegree(rng, m, m.NNZ()/500)
}

// BenchmarkSolverCG measures a full conjugate-gradient solve through a
// WISE-style format — the iterative workload the paper motivates with.
func BenchmarkSolverCG(b *testing.B) {
	clone := gen.Stencil2D(64, 64, false).AddToDiagonal(1)
	format := kernels.BuildSRVPack(clone, kernels.Method{Kind: kernels.SellCSigma, C: 8, Sigma: 64, Sched: kernels.StCont})
	bvec := matrix.Ones(clone.Rows)
	for i := 0; i < b.N; i++ {
		x := make([]float64, clone.Rows)
		if _, err := solvers.CG(solvers.FromFormat(format, 0), bvec, x, 1e-8, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionSegCSR measures the wall-clock of the Section 7
// extension method next to plain CSR on the same matrix.
func BenchmarkExtensionSegCSR(b *testing.B) {
	m := benchMatrix()
	x := matrix.Iota(m.Cols)
	y := make([]float64, m.Rows)
	for _, method := range append(kernels.ExtensionMethods(machine.Scaled().LLCDoubles()),
		kernels.Method{Kind: kernels.CSR, Sched: kernels.Dyn}) {
		format := kernels.Build(m, method, 64)
		b.Run(method.String(), func(b *testing.B) {
			b.SetBytes(int64(m.NNZ()) * 12)
			for i := 0; i < b.N; i++ {
				format.SpMVParallel(y, x, 0)
			}
		})
	}
}

// BenchmarkCostModel measures the estimator itself: one full 29-method
// labeling of a mid-size matrix (the dominant cost of wise-train).
func BenchmarkCostModel(b *testing.B) {
	m := benchMatrix()
	e := costmodel.New(machine.Scaled())
	space := kernels.ModelSpace(machine.Scaled())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, method := range space {
			e.MethodCycles(m, method)
		}
	}
}

// BenchmarkCacheSim measures raw simulator throughput.
func BenchmarkCacheSim(b *testing.B) {
	cs := costmodel.NewCacheSim(machine.Scaled())
	rng := rand.New(rand.NewSource(1))
	addrs := make([]int64, 1<<16)
	for i := range addrs {
		addrs[i] = int64(rng.Intn(1 << 20))
	}
	b.SetBytes(int64(len(addrs)))
	for i := 0; i < b.N; i++ {
		for _, a := range addrs {
			cs.Access(a)
		}
	}
}

func BenchmarkAblationModelFamily(b *testing.B) {
	benchTable(b, experiments.AblationModelFamily)
}
