package mining

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"bivoc/internal/annotate"
	"bivoc/internal/rng"
)

// streamCorpus synthesizes a deterministic document set exercising every
// index structure: concepts across categories, structured fields, and
// time buckets.
func streamCorpus(n int) []Document {
	r := rng.New(42)
	colors := []string{"red", "green", "blue"}
	shapes := []string{"circle", "square"}
	outcomes := []string{"won", "lost"}
	docs := make([]Document, n)
	for i := range docs {
		dr := r.Split(uint64(i))
		var concepts []annotate.Concept
		concepts = append(concepts, annotate.Concept{
			Category: "color", Canonical: rng.Pick(dr, colors), Start: 0, End: 1,
		})
		if dr.Bool(0.6) {
			concepts = append(concepts, annotate.Concept{
				Category: "shape", Canonical: rng.Pick(dr, shapes), Start: 1, End: 2,
			})
		}
		docs[i] = Document{
			ID:       fmt.Sprintf("doc-%05d", i),
			Concepts: concepts,
			Fields:   map[string]string{"outcome": rng.Pick(dr, outcomes)},
			Time:     dr.Intn(7),
		}
	}
	return docs
}

// viewOf is the sealed view Snapshot hands out over the documents added
// to si so far.
func viewOf(si *StreamIndex) *Index {
	var view *Index
	si.Snapshot(func(ix *Index) { view = ix })
	return view
}

// queryFingerprint captures every analysis surface over an index so two
// indexes can be compared for behavioural equality.
func queryFingerprint(t *testing.T, q *Index) string {
	t.Helper()
	rows := []Dim{ConceptDim("color", "red"), ConceptDim("color", "green"), ConceptDim("color", "blue")}
	cols := []Dim{FieldDim("outcome", "won"), FieldDim("outcome", "lost")}
	out := q.Associate(rows, cols, 0.95).Render()
	out += fmt.Sprintf("count=%d both=%d\n",
		q.Count(CategoryDim("shape")),
		q.CountBoth(ConceptDim("shape", "circle"), FieldDim("outcome", "won")))
	for _, rel := range q.RelativeFrequency("shape", FieldDim("outcome", "won")) {
		out += fmt.Sprintf("rel %s %.6f %d/%d %d/%d\n", rel.Concept, rel.Ratio, rel.InSubset, rel.SubsetSize, rel.InAll, rel.N)
	}
	for _, p := range q.Trend(ConceptDim("color", "red")) {
		out += fmt.Sprintf("trend %d=%d\n", p.Time, p.Count)
	}
	for _, d := range q.DrillDown(ConceptDim("color", "blue"), FieldDim("outcome", "lost")) {
		out += "drill " + d.ID + "\n"
	}
	out += fmt.Sprintf("cats %v fields %v\n", q.ConceptsInCategory("color"), q.FieldValues("outcome"))
	return out
}

// TestStreamIndexMatchesBatchIndex is the sealed-snapshot equivalence
// proof: a StreamIndex fed out of order from many goroutines answers
// every analysis identically to a batch Index built sequentially from
// the same documents.
func TestStreamIndexMatchesBatchIndex(t *testing.T) {
	docs := streamCorpus(3000)
	batch := Seal(slices.Clone(docs))

	si := NewStreamIndex()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Strided partition: interleaved IDs guarantee the arrival
			// order differs wildly from generation order.
			for i := w; i < len(docs); i += workers {
				si.Add(docs[i])
			}
		}(w)
	}
	wg.Wait()

	// Pre-seal: queries must already agree (order-insensitive analyses).
	if got, want := queryFingerprint(t, viewOf(si)), queryFingerprint(t, batch); got != want {
		t.Fatalf("pre-seal stream results diverge from batch:\n--- stream ---\n%s--- batch ---\n%s", got, want)
	}

	sealed := si.Seal()
	if got, want := queryFingerprint(t, sealed), queryFingerprint(t, batch); got != want {
		t.Fatalf("sealed results diverge from batch:\n--- sealed ---\n%s--- batch ---\n%s", got, want)
	}
	// Sealed rebuild is ID-ordered, so document positions are canonical:
	// doc i of the sealed index is doc i of the batch index (the corpus
	// was generated in ID order).
	if sealed.Len() != batch.Len() {
		t.Fatalf("sealed len %d != batch len %d", sealed.Len(), batch.Len())
	}
	for i := 0; i < sealed.Len(); i++ {
		if !reflect.DeepEqual(sealed.Doc(i), batch.Doc(i)) {
			t.Fatalf("sealed doc %d differs from batch doc %d", i, i)
		}
	}
}

// TestStreamIndexAddWhileQuery races writers against every reader path
// under -race: correctness here is "no race, no panic, and monotonically
// consistent snapshots".
func TestStreamIndexAddWhileQuery(t *testing.T) {
	docs := streamCorpus(2000)
	si := NewStreamIndex()

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: hammer the analysis surface while adds are in flight.
	readerErr := make(chan string, 1)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := []Dim{ConceptDim("color", "red"), ConceptDim("color", "green")}
			cols := []Dim{FieldDim("outcome", "won"), FieldDim("outcome", "lost")}
			prevLen := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				view := viewOf(si)
				n := view.Len()
				if n < prevLen {
					select {
					case readerErr <- fmt.Sprintf("Len went backwards: %d then %d", prevLen, n):
					default:
					}
					return
				}
				prevLen = n
				tbl := view.Associate(rows, cols, 0.95)
				for _, row := range tbl.Cells {
					for _, cell := range row {
						if cell.Ncell > cell.N {
							select {
							case readerErr <- fmt.Sprintf("cell count %d exceeds N %d", cell.Ncell, cell.N):
							default:
							}
							return
						}
					}
				}
				view.RelativeFrequency("shape", FieldDim("outcome", "won"))
				view.Trend(ConceptDim("color", "red"))
				view.DrillDown(ConceptDim("color", "blue"), FieldDim("outcome", "lost"))
				view.ConceptsInCategory("color")
				if view.Count(CategoryDim("color")) > view.Len() {
					panic("snapshot count exceeds len")
				}
			}
		}()
	}

	// Writers: 4 goroutines adding strided partitions, one using batches.
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			if w == 0 {
				var buf []Document
				for i := w; i < len(docs); i += 4 {
					buf = append(buf, docs[i])
					if len(buf) == 32 {
						si.AddBatch(buf)
						buf = buf[:0]
					}
				}
				si.AddBatch(buf)
				return
			}
			for i := w; i < len(docs); i += 4 {
				si.Add(docs[i])
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	select {
	case msg := <-readerErr:
		t.Fatal(msg)
	default:
	}
	if n := viewOf(si).Len(); n != len(docs) {
		t.Fatalf("indexed %d docs, want %d", n, len(docs))
	}
}

// TestStreamViewIsASnapshot: the view Snapshot hands out never changes.
// A caller keeps it while writers Add concurrently; its Len and its
// answers stay what they were, while a new query sees every document
// added since.
func TestStreamViewIsASnapshot(t *testing.T) {
	docs := streamCorpus(400)
	si := NewStreamIndex()
	si.AddBatch(docs[:200])
	kept := viewOf(si)
	want := queryFingerprint(t, kept)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 200 + w; i < len(docs); i += 4 {
				si.Add(docs[i])
			}
		}(w)
	}
	changed := make(chan string, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if n := kept.Len(); n != 200 {
					changed <- fmt.Sprintf("kept view's Len became %d", n)
					return
				}
				if got := queryFingerprint(t, kept); got != want {
					changed <- "kept view's answers changed:\n" + got
					return
				}
			}
		}()
	}
	wg.Wait()
	close(changed)
	for msg := range changed {
		t.Error(msg)
	}
	if n := kept.Len(); n != 200 {
		t.Fatalf("kept view's Len is %d after the Adds, want 200", n)
	}
	if got := queryFingerprint(t, kept); got != want {
		t.Fatalf("kept view's answers changed after the Adds:\n--- now ---\n%s--- then ---\n%s", got, want)
	}

	now := viewOf(si)
	if got, want := now.Count(CategoryDim("color")), len(docs); got != want {
		t.Fatalf("a new query counts %d documents, want %d", got, want)
	}
	if got, want := queryFingerprint(t, now), queryFingerprint(t, Seal(slices.Clone(docs))); got != want {
		t.Fatalf("a new query misses added documents:\n--- stream ---\n%s--- batch ---\n%s", got, want)
	}
}

func TestStreamIndexSealSemantics(t *testing.T) {
	si := NewStreamIndex()
	docs := streamCorpus(10)
	for _, d := range docs {
		si.Add(d)
	}
	first := si.Seal()
	if second := si.Seal(); second != first {
		t.Fatal("Seal is not idempotent")
	}
	// Snapshot keeps handing out the sealed index.
	if view := viewOf(si); view != first || view.Len() != 10 {
		t.Fatalf("post-seal view holds %d documents and is the sealed index: %v; want 10 and true", view.Len(), view == first)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Seal did not panic")
		}
	}()
	si.Add(docs[0])
}

// TestStreamIndexDuplicateIDPanics: the duplicate tripwire exists for
// retrying pipelines — a stage that replays an item it already emitted
// must be caught at the index, not surface later as a nondeterministic
// Seal.
func TestStreamIndexDuplicateIDPanics(t *testing.T) {
	si := NewStreamIndex()
	docs := streamCorpus(3)
	for _, d := range docs {
		si.Add(d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate-ID Add did not panic")
		}
	}()
	si.Add(docs[1])
}

func TestStreamIndexSealChecked(t *testing.T) {
	si := NewStreamIndex()
	docs := streamCorpus(8)
	for _, d := range docs {
		si.Add(d)
	}
	ix, err := si.SealChecked(8)
	if err != nil {
		t.Fatalf("SealChecked with matching count failed: %v", err)
	}
	if ix.Len() != 8 {
		t.Fatalf("sealed Len %d, want 8", ix.Len())
	}

	// Dead-letter-aware accounting: 2 of 10 items dead-lettered → the
	// expectation is corpus minus dead letters, not corpus size.
	si2 := NewStreamIndex()
	for _, d := range streamCorpus(10)[:8] {
		si2.Add(d)
	}
	if _, err := si2.SealChecked(10 - 2); err != nil {
		t.Fatalf("SealChecked(corpus-dead) failed: %v", err)
	}

	si3 := NewStreamIndex()
	for _, d := range streamCorpus(5) {
		si3.Add(d)
	}
	if _, err := si3.SealChecked(7); err == nil {
		t.Fatal("SealChecked passed despite lost documents")
	}
}
