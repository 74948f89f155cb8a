package kernels

import (
	"math"

	"wise/internal/matrix"
)

// Format is a built, executable SpMV representation.
type Format interface {
	// SpMV computes y = A*x sequentially; y is overwritten.
	SpMV(y, x []float64)
	// SpMVParallel computes y = A*x using the format's scheduling policy.
	SpMVParallel(y, x []float64, workers int)
}

var (
	_ Format = (*CSRFormat)(nil)
	_ Format = (*SRVPack)(nil)
)

// defaultRowBlock is the scheduling granularity, in rows, that every format
// uses when its builder is given rowBlock <= 0.
const defaultRowBlock = 64

// Build constructs the executable format for any method of the model space.
// rowBlock is the scheduling granularity in rows (the paper's K); pass 0 for
// the default of 64.
func Build(m *matrix.CSR, method Method, rowBlock int) Format {
	formatsBuilt.Inc()
	if rowBlock <= 0 {
		rowBlock = defaultRowBlock
	}
	switch method.Kind {
	case CSR:
		return BuildCSRFormat(m, method.Sched, rowBlock)
	case SegCSRKind:
		return BuildSegCSR(m, method.C, method.Sched, rowBlock)
	default:
		return buildSRVPack(m, method, rowBlock)
	}
}

// BuildOps counts the dominant operations of a format conversion, used by the
// cost model to charge preprocessing time (the paper reports preprocessing
// in units of baseline SpMV iterations, Figure 13c).
type BuildOps struct {
	ElementsMoved int64   // nonzeros written into the new layout
	Comparisons   float64 // sorting comparisons (row/column frequency sorts)
	ScanOps       int64   // auxiliary passes over row/column metadata
}

// EstimateBuildOps analytically derives the conversion work for a method on
// a matrix of the given shape, without building it.
func EstimateBuildOps(rows, cols int, nnz int64, method Method) BuildOps {
	log2 := func(n float64) float64 {
		if n < 2 {
			return 1
		}
		return math.Log2(n)
	}
	var ops BuildOps
	switch method.Kind {
	case CSR:
		// No conversion: CSR is the input representation.
	case SELLPACK:
		ops.ElementsMoved = nnz
		ops.ScanOps = int64(rows)
	case SellCSigma:
		ops.ElementsMoved = nnz
		ops.ScanOps = int64(rows)
		ops.Comparisons = float64(rows) * log2(float64(method.Sigma))
	case SellCR:
		ops.ElementsMoved = nnz
		ops.ScanOps = int64(rows)
		ops.Comparisons = float64(rows) * log2(float64(rows))
	case LAV1Seg:
		// CFS: column count pass + column sort + per-row remap-and-resort,
		// then global RFS.
		ops.ElementsMoved = 2 * nnz // remap pass + final packing
		ops.ScanOps = int64(rows + cols)
		avgRow := float64(nnz) / math.Max(float64(rows), 1)
		ops.Comparisons = float64(cols)*log2(float64(cols)) +
			float64(rows)*log2(float64(rows)) +
			float64(nnz)*log2(avgRow)
	case LAV:
		avgRow := float64(nnz) / math.Max(float64(rows), 1)
		ops.ElementsMoved = 2 * nnz
		ops.ScanOps = int64(rows+cols) + int64(rows) // + segment split scan
		ops.Comparisons = float64(cols)*log2(float64(cols)) +
			2*float64(rows)*log2(float64(rows)) + // RFS per segment
			float64(nnz)*log2(avgRow)
	case SegCSRKind:
		// One pass distributing nonzeros into column segments.
		ops.ElementsMoved = nnz
		ops.ScanOps = int64(rows) * int64((cols+method.C-1)/maxIntBuild(method.C, 1))
	}
	return ops
}

func maxIntBuild(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FeatureExtractionOps estimates the work of WISE's feature pass: one sweep
// over the nonzeros (tile/row/column tallies) plus per-bucket statistics
// (sorting for Gini and p-ratio over five distributions).
func FeatureExtractionOps(rows, cols int, nnz int64, tiles int) BuildOps {
	log2 := func(n float64) float64 {
		if n < 2 {
			return 1
		}
		return math.Log2(n)
	}
	buckets := float64(rows+cols) + 3*float64(tiles)
	return BuildOps{
		ElementsMoved: nnz, // one streaming pass over the nonzeros
		ScanOps:       int64(rows + cols + tiles),
		Comparisons:   buckets * log2(buckets),
	}
}
