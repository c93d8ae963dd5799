package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"bivoc/internal/linker"
	"bivoc/internal/warehouse"
)

// Naive-vs-optimized equivalence at the experiment level: the churn
// experiment links every kept message through the engine
// newSubscriberLinker builds, so running it over that engine's naive
// view — the recompute-everything similarity() under the same
// Threshold-Algorithm walk — must not change a single reported byte, at
// every supported worker count. (The call-analysis pipeline builds no
// linker.Engine — its link stage attaches warehouse fields by index — so
// there is nothing of this kind to compare there.)
func TestChurnExperimentNaiveSimilarityEquivalence(t *testing.T) {
	t.Parallel()
	base := DefaultChurnExperimentConfig()
	base.World.NumCustomers = 250
	base.World.Emails = 500
	base.World.SMS = 200
	linked := 0
	naiveLinker := func(db *warehouse.DB) (*linker.Engine, error) {
		e, err := newSubscriberLinker(db)
		if err != nil {
			return nil, err
		}
		linked++
		return e.Naive(), nil
	}
	for _, w := range []int{1, 4, 8} {
		cfg := base
		cfg.Workers = w
		naive, err := runChurnExperiment(context.Background(), cfg, naiveLinker)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := RunChurnExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b := *naive, *fast
		if a.Linked == 0 {
			t.Fatalf("workers=%d: nothing linked, so nothing was compared", w)
		}
		if strings.Join(a.TopFeatures, ",") != strings.Join(b.TopFeatures, ",") {
			t.Fatalf("workers=%d: top features differ:\n%v\n%v", w, a.TopFeatures, b.TopFeatures)
		}
		a.TopFeatures, b.TopFeatures = nil, nil
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("workers=%d: results differ between naive and cached similarity:\n%+v\n%+v", w, a, b)
		}
	}
	if linked != 3 {
		t.Fatalf("the naive engine was built %d times for 3 runs", linked)
	}
}
