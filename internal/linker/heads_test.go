package linker

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bivoc/internal/warehouse"
)

// collidingSims finds a weight w and sims a < b that it weighs the same.
func collidingSims(t *testing.T) (w, a, b float64) {
	t.Helper()
	for _, w := range []float64{0.7, 1.0 / 3, 0.1, 1e-3} {
		for a := 0.6; a < 0.95; a += 0.001 {
			if b := math.Nextafter(a, 1); w*a == w*b {
				return w, a, b
			}
		}
	}
	t.Fatal("no weight in the pool weighs two adjacent sims the same")
	return 0, 0, 0
}

// wholeList ranks every candidate as rankAll does for one attribute.
func wholeList(rows []warehouse.RowID, sims []float64, floor, w float64) []listEntry {
	var list []listEntry
	for i, row := range rows {
		if s := w * sims[i]; sims[i] >= floor && s > 0 {
			list = append(list, listEntry{row, s})
		}
	}
	slices.SortFunc(list, func(x, y listEntry) int {
		return cmp.Or(cmp.Compare(y.score, x.score), cmp.Compare(x.row, y.row))
	})
	return list
}

// headList ranks the head of the candidates (rows ascending, as the index
// returns them) and weighs it, checking it against the whole list: a
// prefix of it, and all of it when it says so.
func headList(t *testing.T, cands map[warehouse.RowID]float64, floor, w float64) ([]listEntry, bool) {
	t.Helper()
	var m attrMemo
	for row := range cands {
		m.rows = append(m.rows, row)
	}
	slices.Sort(m.rows)
	for _, row := range m.rows {
		m.sims = append(m.sims, cands[row])
	}
	h := rankHead(&m, floor)
	list, partial := h.list(nil, w)
	whole := wholeList(m.rows, m.sims, floor, w)
	if len(list) > len(whole) || !slices.Equal(list, whole[:len(list)]) {
		t.Fatalf("candidates %v w=%v: head list %v is not a prefix of %v", cands, w, list, whole)
	}
	if !partial && !slices.Equal(list, whole) {
		t.Fatalf("candidates %v w=%v: head list %v claims to be all of %v", cands, w, list, whole)
	}
	return list, partial
}

// TestHeadPrefixRule pins the prefix rule on hand-made candidate sets
// where the weight makes two distinct sims score the same, w·a == w·b.
func TestHeadPrefixRule(t *testing.T) {
	w, a, b := collidingSims(t)
	const floor = 0.5
	rowsOf := func(list []listEntry) []warehouse.RowID {
		var rows []warehouse.RowID
		for _, en := range list {
			rows = append(rows, en.row)
		}
		return rows
	}
	for _, c := range []struct {
		name    string
		cands   map[warehouse.RowID]float64
		w       float64
		rows    []warehouse.RowID
		partial bool
	}{{
		// The head's last entry, sim b, weighs the same as the left-out
		// row 1 of sim a, which ranks first by row: the prefix stops.
		name:  "a kept sim above out ties it",
		cands: map[warehouse.RowID]float64{10: 0.99, 11: 0.98, 12: 0.97, 9: b, 1: a, 5: 0.55},
		w:     w, rows: []warehouse.RowID{10, 11, 12}, partial: true,
	}, {
		// The head ends in sim out's tie group, but the left-out row 2,
		// one sim below, ties it too and ranks before it.
		name:  "the sim below out ties out",
		cands: map[warehouse.RowID]float64{10: 0.99, 11: 0.98, 12: 0.97, 7: b, 8: b, 2: a},
		w:     w, rows: []warehouse.RowID{10, 11, 12}, partial: true,
	}, {
		// Rows 3 and 9 tie once weighed; row 3 (sim out) outranks the
		// left-out row 4 of sim out, row 9 (sim above) does not.
		name:  "a tie is kept only up to the head's last row",
		cands: map[warehouse.RowID]float64{1: 0.99, 2: 0.98, 9: b, 3: a, 4: a, 5: 0.55},
		w:     w, rows: []warehouse.RowID{1, 2, 3}, partial: true,
	}, {
		// With nothing left out, two kept sims that weigh the same are
		// ranked by row, not by sim.
		name:  "a whole head re-ranked by weighted score",
		cands: map[warehouse.RowID]float64{9: b, 3: a, 6: 0.2},
		w:     w, rows: []warehouse.RowID{3, 9}, partial: false,
	}, {
		// No collision: the head's tie group at out precedes the left-out
		// rows of sim out, so the whole head is the prefix.
		name:  "a tie group at the cut is kept",
		cands: map[warehouse.RowID]float64{1: 0.99, 2: 0.9, 3: 0.9, 4: 0.9, 6: 0.9, 7: 0.8},
		w:     0.5, rows: []warehouse.RowID{1, 2, 3, 4}, partial: true,
	}, {
		// What a head leaves out is under the floor: the head is whole.
		name:  "left-out candidates under the floor",
		cands: map[warehouse.RowID]float64{1: 0.99, 2: 0.9, 3: 0.9, 4: 0.9, 6: 0.4, 7: 0.3},
		w:     0.5, rows: []warehouse.RowID{1, 2, 3, 4}, partial: false,
	}, {
		name:  "no weight",
		cands: map[warehouse.RowID]float64{1: 0.99, 2: 0.9, 3: 0.9, 4: 0.9, 6: 0.9},
		w:     0, rows: nil, partial: false,
	}} {
		list, partial := headList(t, c.cands, floor, c.w)
		if got := rowsOf(list); !reflect.DeepEqual(got, c.rows) || partial != c.partial {
			t.Errorf("%s: list rows %v partial %v, want %v %v", c.name, got, partial, c.rows, c.partial)
		}
	}
	// Random candidate sets over sims that tie, collide under w and fall
	// under the floor: every head list is a prefix of the whole list.
	rng := rand.New(rand.NewSource(9))
	sims := []float64{a, b, 0.99, 0.9, 0.9, 0.6, 0.3}
	for trial := 0; trial < 5000; trial++ {
		cands := map[warehouse.RowID]float64{}
		for i := rng.Intn(11); i > 0; i-- {
			cands[warehouse.RowID(rng.Intn(16))] = sims[rng.Intn(len(sims))]
		}
		headList(t, cands, floor, []float64{w, 0.5, 1}[rng.Intn(3)])
	}
}

// TestRankHeadLeftOut: the head records the best sim it leaves out and
// the best strictly below that, both -Inf when there are none.
func TestRankHeadLeftOut(t *testing.T) {
	m := attrMemo{
		rows: []warehouse.RowID{0, 1, 2, 3, 4, 5, 6, 7},
		sims: []float64{0.7, 0.9, 0.7, 0.95, 0.8, 0.7, 0.6, 0.1},
	}
	h := rankHead(&m, 0.5)
	want := head{rows: [headLen]warehouse.RowID{3, 1, 4, 0}, sims: [headLen]float64{0.95, 0.9, 0.8, 0.7}, out: 0.7, below: 0.6, n: 4}
	if h != want {
		t.Fatalf("rankHead = %+v, want %+v", h, want)
	}
	m.rows, m.sims = m.rows[:2], m.sims[:2]
	h = rankHead(&m, 0.5)
	if h.n != 2 || !math.IsInf(h.out, -1) || !math.IsInf(h.below, -1) {
		t.Fatalf("a head that leaves nothing out: %+v", h)
	}
}
