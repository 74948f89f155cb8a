//go:build !race

// The golden hash is a deterministic single-goroutine computation over the
// whole default corpus: the race detector has nothing to find in it and
// would only make it minutes long, so race builds leave it out.

package features

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"wise/internal/gen"
)

// goldenFeatureHash is the FNV-64a hash of every feature name and value bit
// pattern extracted from the default training corpus. The extraction loops
// may be restructured for speed, but the vectors they produce must stay
// byte-identical: trained models and recorded labels depend on them.
const goldenFeatureHash uint64 = 0xa4c371c71d823680

// TestFeatureVectorsGolden pins the feature vectors of the whole default
// corpus to goldenFeatureHash.
func TestFeatureVectorsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("extracts the full default corpus")
	}
	h := fnv.New64a()
	var word [8]byte
	for _, lm := range gen.Corpus(gen.DefaultCorpusConfig()) {
		f := Extract(lm.M, DefaultConfig())
		for i, name := range f.Names {
			_, _ = h.Write([]byte(name)) // hash writes never fail
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(f.Values[i]))
			_, _ = h.Write(word[:])
		}
	}
	if got := h.Sum64(); got != goldenFeatureHash {
		t.Fatalf("feature vectors of the default corpus hash to %#x, want %#x", got, goldenFeatureHash)
	}
}
