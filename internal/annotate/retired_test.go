package annotate

// Nothing shipped reaches what this file declares (the root package's
// TestEveryInternalFunctionIsReachable). It left dictionary.go
// in PR 24 and stays, as test code only, because the tests below pin it
// and a PR may retire only a few tests of the floor. It is a reference
// for nothing: delete each declaration with its tests.

import (
	"reflect"
	"sort"
	"testing"
)

// Categories returns the sorted distinct semantic categories.
func (d *Dictionary) Categories() []string {
	set := map[string]bool{}
	for _, e := range d.entries {
		set[e.Category] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func TestDictionaryCategories(t *testing.T) {
	cats := carRentalDict().Categories()
	want := []string{"discount", "payment methods", "place", "rate", "vehicle feature", "vehicle type"}
	if !reflect.DeepEqual(cats, want) {
		t.Errorf("categories = %v", cats)
	}
}
