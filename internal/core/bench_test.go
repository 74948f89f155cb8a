package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"wise/internal/features"
	"wise/internal/gen"
	"wise/internal/kernels"
	"wise/internal/machine"
	"wise/internal/ml"
	"wise/internal/perf"
)

// trainModelRows are the sizes of the small training corpus behind the
// benchmark model: real feature extraction over the full-width model space,
// with fixed synthetic class labels, so the model never needs the
// cost-model labeling pass and is the same on every run.
var trainModelRows = []int{150, 190, 230, 270, 310, 350, 390, 430}

// trainLabels builds the benchmark model's training set.
func trainLabels(mach machine.Machine) []perf.MatrixLabels {
	space := kernels.ModelSpace(mach)
	rng := rand.New(rand.NewSource(8))
	labels := make([]perf.MatrixLabels, 0, len(trainModelRows))
	for i, rows := range trainModelRows {
		m := gen.Uniform(rng, rows, 4)
		labels = append(labels, perf.MatrixLabels{
			Name: fmt.Sprintf("bench-train-%d", i), Rows: m.Rows, Cols: m.Cols, NNZ: int64(m.NNZ()),
			Features: features.Extract(m, features.DefaultConfig()),
			Methods:  space,
			Classes:  syntheticClasses(i, len(space)),
		})
	}
	return labels
}

// syntheticClasses assigns a fixed, varied class per (matrix, method) pair
// so every tree sees more than one class and training is deterministic.
func syntheticClasses(i, nMethods int) []int {
	classes := make([]int, nMethods)
	for mi := range classes {
		classes[mi] = (i*3 + mi) % perf.NumClasses
	}
	return classes
}

// BenchmarkTrain times fitting one decision tree per ModelSpace method on
// the benchmark model's training set.
func BenchmarkTrain(b *testing.B) {
	mach := machine.Scaled()
	labels := trainLabels(mach)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(labels, ml.DefaultTreeConfig(), features.DefaultConfig(), mach); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelect times one selection on each 2^13-row gen.WarmFamilies
// matrix: Table-2 feature extraction, every per-method tree, and the
// tie-breaking selector, as a stateless /predict runs it.
func BenchmarkSelect(b *testing.B) {
	mach := machine.Scaled()
	w, err := Train(trainLabels(mach), ml.DefaultTreeConfig(), features.DefaultConfig(), mach)
	if err != nil {
		b.Fatal(err)
	}
	for _, fam := range gen.WarmFamilies(1 << 13) {
		m := fam.New(rand.New(rand.NewSource(1)))
		b.Run(fam.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.SelectCtx(context.Background(), m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
