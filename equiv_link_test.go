package bivoc_test

import (
	"reflect"
	"testing"
)

// TestLinkGoldenCarRentalEquivalence is the golden byte-identity test of
// the ISSUE's equivalence contract: top-k linking of noisy identity
// documents against the synthetic car-rental world must return exactly
// the same matches — same rows, same float scores, same order — whether
// similarities come from the naive recompute path (the engine's Naive
// view) or the cached warehouse features.
func TestLinkGoldenCarRentalEquivalence(t *testing.T) {
	t.Parallel()
	world, engine, annotators := linkerFixture(t)
	docs := identityDocs(t, world, annotators, 40)
	naive := engine.Naive()
	linked := 0
	for di, d := range docs {
		for _, k := range []int{1, 3} {
			want := naive.Link(d, k)
			got := engine.Link(d, k)
			linked += len(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("doc %d k=%d: cached link differs from naive oracle:\ngot  %v\nwant %v", di, k, got, want)
			}
		}
	}
	if linked == 0 {
		t.Fatal("no document linked to anything: nothing was compared")
	}
}
