package asr

import (
	"strings"
	"testing"
	"testing/quick"

	"bivoc/internal/lm"
	"bivoc/internal/phonetics"
	"bivoc/internal/rng"
)

// --- Lexicon tests ---

func TestLexiconAddAndLookup(t *testing.T) {
	lex := NewLexicon()
	if err := lex.Add("Car", ClassGeneric); err != nil {
		t.Fatal(err)
	}
	if err := lex.Add("smith", ClassName); err != nil {
		t.Fatal(err)
	}
	if len(lex.words) != 2 {
		t.Errorf("size = %d", len(lex.words))
	}
	if !lex.Contains("CAR") || !lex.Contains("car") {
		t.Error("lookup should be case-insensitive")
	}
	if lex.ClassOfWord("smith") != ClassName {
		t.Error("class lost")
	}
	if lex.ClassOfWord("unknown") != ClassGeneric {
		t.Error("unknown word should be generic")
	}
	if _, ok := lex.Pronunciation("car"); !ok {
		t.Error("pronunciation missing")
	}
	if _, ok := lex.Pronunciation("zebra"); ok {
		t.Error("absent word should not have pronunciation")
	}
}

func TestLexiconDuplicateAdd(t *testing.T) {
	lex := NewLexicon()
	if err := lex.Add("smith", ClassName); err != nil {
		t.Fatal(err)
	}
	if err := lex.Add("smith", ClassGeneric); err != nil {
		t.Fatal(err)
	}
	if len(lex.words) != 1 {
		t.Errorf("duplicate add changed size: %d", len(lex.words))
	}
	if lex.ClassOfWord("smith") != ClassName {
		t.Error("first class should win")
	}
}

func TestLexiconRejectsUnpronounceable(t *testing.T) {
	lex := NewLexicon()
	if err := lex.Add("12345", ClassGeneric); err == nil {
		t.Error("digit string should be rejected (spell digits first)")
	}
}

func TestLexiconPhonesConcatenation(t *testing.T) {
	lex := NewLexicon()
	for _, w := range []string{"book", "a", "car"} {
		if err := lex.Add(w, ClassGeneric); err != nil {
			t.Fatal(err)
		}
	}
	got, err := lex.Phones([]string{"book", "a", "car"})
	if err != nil {
		t.Fatal(err)
	}
	var want []phonetics.Phone
	for _, w := range []string{"book", "a", "car"} {
		p, _ := lex.Pronunciation(w)
		want = append(want, p...)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if _, err := lex.Phones([]string{"book", "zebra"}); err == nil {
		t.Error("out-of-lexicon should error")
	}
}

// wordsOfClass returns the words carrying the class, in insertion order.
func wordsOfClass(l *Lexicon, c WordClass) []string {
	var out []string
	for i, w := range l.words {
		if l.classes[i] == c {
			out = append(out, w)
		}
	}
	return out
}

func TestWordsOfClass(t *testing.T) {
	lex := NewLexicon()
	lex.AddAll([]string{"smith", "jones"}, ClassName)
	lex.AddAll([]string{"car", "rate"}, ClassGeneric)
	names := wordsOfClass(lex, ClassName)
	if len(names) != 2 {
		t.Errorf("names = %v", names)
	}
}

// --- Channel tests ---

func TestCleanChannelMostlyIdentity(t *testing.T) {
	ch := NewChannel(ChannelConfig{SubProb: 0, DelProb: 0, InsProb: 0, BurstProb: 0})
	r := rng.New(1)
	in := phonetics.ToPhones("reservation")
	out := ch.Corrupt(r, in)
	if len(out) != len(in) {
		t.Fatalf("noiseless channel changed length: %v vs %v", out, in)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatal("noiseless channel altered phones")
		}
	}
}

func TestChannelRatesRealized(t *testing.T) {
	cfg := ChannelConfig{SubProb: 0.2, SameClassBias: 0.8, DelProb: 0.1, InsProb: 0.05}
	ch := NewChannel(cfg)
	r := rng.New(7)
	var in []phonetics.Phone
	for i := 0; i < 20000; i++ {
		in = append(in, phonetics.AllPhones()[i%39])
	}
	out := ch.Corrupt(r, in)
	// Expected length = N(1 - del + ins).
	expected := float64(len(in)) * (1 - cfg.DelProb + cfg.InsProb)
	if ratio := float64(len(out)) / expected; ratio < 0.97 || ratio > 1.03 {
		t.Errorf("length ratio %v off expectation", ratio)
	}
}

func TestChannelDeterministicPerSeed(t *testing.T) {
	ch := NewChannel(CallCenterChannel)
	in := phonetics.ToPhones("reservation")
	a := ch.Corrupt(rng.New(5), in)
	b := ch.Corrupt(rng.New(5), in)
	if len(a) != len(b) {
		t.Fatal("non-deterministic channel")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic channel")
		}
	}
}

func TestEmissionModelPrefersMatch(t *testing.T) {
	em := NewEmissionModel(CallCenterChannel)
	match := em.Score(phonetics.B, phonetics.B)
	same := em.Score(phonetics.D, phonetics.B) // same class (voiced stops)
	diff := em.Score(phonetics.S, phonetics.B) // different class
	if !(match > same && same > diff) {
		t.Errorf("ordering wrong: match=%v same=%v diff=%v", match, same, diff)
	}
	if em.DeletionPenalty() >= 0 || em.InsertionPenalty() >= 0 {
		t.Error("penalties must be negative log-probs")
	}
}

// --- Alignment / WER tests ---

func TestAlignPerfect(t *testing.T) {
	pairs := Align([]string{"a", "b"}, []string{"a", "b"})
	for _, p := range pairs {
		if p.Op != OpMatch {
			t.Fatalf("unexpected op in %v", pairs)
		}
	}
}

func TestAlignCounts(t *testing.T) {
	ref := strings.Fields("i want to book a car")
	hyp := strings.Fields("i want book a blue car")
	var st WERStats
	st.Add(Align(ref, hyp))
	// "to" deleted, "blue" inserted.
	if st.Del != 1 || st.Ins != 1 || st.Sub != 0 {
		t.Errorf("S/D/I = %d/%d/%d", st.Sub, st.Del, st.Ins)
	}
	if st.RefWords != 6 {
		t.Errorf("N = %d", st.RefWords)
	}
	if w := st.WER(); w != 2.0/6.0 {
		t.Errorf("WER = %v", w)
	}
}

func TestAlignEmptyCases(t *testing.T) {
	var st WERStats
	st.Add(Align(nil, strings.Fields("a b")))
	if st.Ins != 2 {
		t.Errorf("all-insertion case: %+v", st)
	}
	st = WERStats{}
	st.Add(Align(strings.Fields("a b"), nil))
	if st.Del != 2 || st.WER() != 1 {
		t.Errorf("all-deletion case: %+v", st)
	}
	if (&WERStats{}).WER() != 0 {
		t.Error("empty WER should be 0")
	}
}

func TestAlignDistanceMatchesLevenshteinProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		ref := make([]string, 0, len(a)%8)
		hyp := make([]string, 0, len(b)%8)
		for i := 0; i < len(a)%8; i++ {
			ref = append(ref, string('a'+rune(a[i]%4)))
		}
		for i := 0; i < len(b)%8; i++ {
			hyp = append(hyp, string('a'+rune(b[i]%4)))
		}
		var st WERStats
		st.Add(Align(ref, hyp))
		// The alignment is an edit script, so its cost must be minimal:
		// compare with a direct distance on the joined strings (each word
		// is one letter here, so string distance equals word distance).
		return st.Sub+st.Del+st.Ins == wordLev(ref, hyp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func wordLev(a, b []string) int {
	la, lb := len(a), len(b)
	dp := make([][]int, la+1)
	for i := range dp {
		dp[i] = make([]int, lb+1)
		dp[i][0] = i
	}
	for j := 0; j <= lb; j++ {
		dp[0][j] = j
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			c := 1
			if a[i-1] == b[j-1] {
				c = 0
			}
			m := dp[i-1][j-1] + c
			if v := dp[i-1][j] + 1; v < m {
				m = v
			}
			if v := dp[i][j-1] + 1; v < m {
				m = v
			}
			dp[i][j] = m
		}
	}
	return dp[la][lb]
}

// --- Decoder tests ---

// testSetup builds a small but confusable lexicon and bigram LM.
func testSetup(t *testing.T) (*Lexicon, lm.Model) {
	t.Helper()
	lex := NewLexicon()
	generic := []string{
		"i", "want", "to", "book", "a", "car", "full", "size", "rate",
		"for", "the", "please", "reservation", "my", "name", "is",
		"number", "phone", "good", "discount",
	}
	lex.AddAll(generic, ClassGeneric)
	names := []string{"smith", "smyth", "jones", "johnson", "jonson", "brown", "braun", "miller", "muller", "davis"}
	lex.AddAll(names, ClassName)
	digits := []string{"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "oh"}
	lex.AddAll(digits, ClassDigit)

	tr := lm.NewTrainer(2)
	corpus := [][]string{
		strings.Fields("i want to book a car"),
		strings.Fields("i want to book a full size car"),
		strings.Fields("my name is smith"),
		strings.Fields("my name is jones"),
		strings.Fields("my phone number is five five five one two three four"),
		strings.Fields("a good rate please"),
		strings.Fields("the rate for the car"),
		strings.Fields("book a reservation for smith"),
		strings.Fields("i want a discount please"),
	}
	// Give every lexicon word at least unigram mass.
	for _, w := range names {
		corpus = append(corpus, []string{"my", "name", "is", w})
	}
	for _, w := range digits {
		corpus = append(corpus, []string{"number", w})
	}
	tr.AddCorpus(corpus)
	model, err := tr.Build()
	if err != nil {
		t.Fatal(err)
	}
	return lex, model
}

func TestDecodeCleanSpeechPerfect(t *testing.T) {
	lex, model := testSetup(t)
	ch := NewChannel(ChannelConfig{SubProb: 0, DelProb: 0, InsProb: 0})
	rec := NewRecognizer(lex, model, ch, DefaultDecoderConfig())
	refs := [][]string{
		strings.Fields("i want to book a car"),
		strings.Fields("my name is smith"),
		strings.Fields("a good rate please"),
	}
	r := rng.New(99)
	for _, ref := range refs {
		hyp, err := rec.Transcribe(r, ref)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(hyp, " ") != strings.Join(ref, " ") {
			t.Errorf("clean decode %q → %q", strings.Join(ref, " "), strings.Join(hyp, " "))
		}
	}
}

func TestDecodeEmptyObservation(t *testing.T) {
	lex, model := testSetup(t)
	rec := NewRecognizer(lex, model, NewChannel(CleanChannel), DefaultDecoderConfig())
	if got := rec.TranscribePhones(nil); got != nil {
		t.Errorf("empty observation decoded to %v", got)
	}
}

func TestDecodeNoisyDegradesGracefully(t *testing.T) {
	lex, model := testSetup(t)
	ref := strings.Fields("i want to book a full size car")
	r := rng.New(2024)

	cleanRec := NewRecognizer(lex, model, NewChannel(CleanChannel), DefaultDecoderConfig())
	noisyRec := NewRecognizer(lex, model, NewChannel(CallCenterChannel), DefaultDecoderConfig())

	cleanWER, noisyWER := &WERStats{}, &WERStats{}
	for i := 0; i < 30; i++ {
		ch, _ := cleanRec.Transcribe(r.Split(uint64(i)), ref)
		nh, _ := noisyRec.Transcribe(r.Split(uint64(1000+i)), ref)
		cleanWER.Add(Align(ref, ch))
		noisyWER.Add(Align(ref, nh))
	}
	if cleanWER.WER() > 0.15 {
		t.Errorf("clean-channel WER too high: %v", cleanWER.WER())
	}
	if noisyWER.WER() <= cleanWER.WER() {
		t.Errorf("noise should increase WER: clean %v noisy %v", cleanWER.WER(), noisyWER.WER())
	}
	if noisyWER.WER() > 0.95 {
		t.Errorf("noisy WER implausibly catastrophic: %v", noisyWER.WER())
	}
}

func TestNamesHarderThanGeneric(t *testing.T) {
	lex, model := testSetup(t)
	rec := NewRecognizer(lex, model, NewChannel(CallCenterChannel), DefaultDecoderConfig())
	scorer := NewClassWER(lex)
	r := rng.New(555)
	names := wordsOfClass(lex, ClassName)
	for i := 0; i < 60; i++ {
		ref := []string{"my", "name", "is", names[i%len(names)]}
		hyp, err := rec.Transcribe(r.Split(uint64(i)), ref)
		if err != nil {
			t.Fatal(err)
		}
		scorer.Add(ref, hyp)
	}
	nameWER := scorer.ForClass(ClassName)
	genWER := scorer.ForClass(ClassGeneric)
	if nameWER <= genWER {
		t.Errorf("names WER %v should exceed generic %v (confusable lexicon)", nameWER, genWER)
	}
}

func TestConstrainedSecondPassImprovesNames(t *testing.T) {
	lex, model := testSetup(t)
	rec := NewRecognizer(lex, model, NewChannel(CallCenterChannel), DefaultDecoderConfig())
	r := rng.New(4242)
	names := wordsOfClass(lex, ClassName)

	var refs, firstHyps, secondHyps [][]string
	for i := 0; i < 60; i++ {
		trueName := names[i%len(names)]
		ref := []string{"my", "name", "is", trueName}
		phones, err := lex.Phones(ref)
		if err != nil {
			t.Fatal(err)
		}
		obs := rec.Channel.Corrupt(r.Split(uint64(i)), phones)
		first := rec.TranscribePhones(obs)
		// Oracle-ish top-N from "the database": the true name plus two
		// distractors — exactly what linking yields in the paper.
		allowed := map[string]bool{
			trueName:                true,
			names[(i+1)%len(names)]: true,
			names[(i+2)%len(names)]: true,
		}
		second := rec.RescoreNames(first, obs, allowed)
		refs = append(refs, ref)
		firstHyps = append(firstHyps, first)
		secondHyps = append(secondHyps, second)
	}
	firstAcc := WordAccuracy(lex, refs, firstHyps, ClassName)
	secondAcc := WordAccuracy(lex, refs, secondHyps, ClassName)
	if secondAcc <= firstAcc {
		t.Errorf("second pass should improve name accuracy: %v → %v", firstAcc, secondAcc)
	}
}

func TestClassWERInsertionAttribution(t *testing.T) {
	lex, _ := testSetup(t)
	scorer := NewClassWER(lex)
	// Insertion right after a name should be attributed to the name class.
	scorer.Add([]string{"smith"}, []string{"smith", "car"})
	if scorer.stats[ClassName].Ins != 1 {
		t.Errorf("insertion not attributed to preceding class: %+v", scorer.stats[ClassName])
	}
	// Insertion at utterance start goes to generic.
	scorer2 := NewClassWER(lex)
	scorer2.Add([]string{"smith"}, []string{"car", "smith"})
	if scorer2.stats[ClassGeneric].Ins != 1 {
		t.Errorf("leading insertion should be generic: %+v", scorer2.stats[ClassGeneric])
	}
}

func TestWordAccuracyEdgeCases(t *testing.T) {
	lex, _ := testSetup(t)
	if WordAccuracy(lex, nil, nil, ClassName) != 0 {
		t.Error("no data accuracy should be 0")
	}
	refs := [][]string{{"smith"}}
	if got := WordAccuracy(lex, refs, [][]string{{"smith"}}, ClassName); got != 1 {
		t.Errorf("perfect accuracy = %v", got)
	}
	if got := WordAccuracy(lex, refs, [][]string{nil}, ClassName); got != 0 {
		t.Errorf("all-deleted accuracy = %v", got)
	}
}

func TestDecodeNBest(t *testing.T) {
	lex, model := testSetup(t)
	rec := NewRecognizer(lex, model, NewChannel(CallCenterChannel), DefaultDecoderConfig())
	ref := strings.Fields("my name is smith")
	phones, err := lex.Phones(ref)
	if err != nil {
		t.Fatal(err)
	}
	obs := rec.Channel.Corrupt(rng.New(21), phones)
	nbest := rec.decoder.DecodeNBest(obs, 5)
	if len(nbest) == 0 {
		t.Fatal("empty n-best")
	}
	// Scores must be non-increasing, entries distinct.
	seen := map[string]bool{}
	for i, h := range nbest {
		key := strings.Join(h.Words, " ")
		if seen[key] {
			t.Errorf("duplicate hypothesis %q", key)
		}
		seen[key] = true
		if i > 0 && h.Score > nbest[i-1].Score {
			t.Errorf("n-best not sorted: %v after %v", h.Score, nbest[i-1].Score)
		}
	}
	// The 1-best must agree with Decode.
	if strings.Join(nbest[0].Words, " ") != strings.Join(rec.TranscribePhones(obs), " ") {
		t.Error("1-best disagrees with Decode")
	}
}

func TestDecodeNBestEdgeCases(t *testing.T) {
	lex, model := testSetup(t)
	rec := NewRecognizer(lex, model, NewChannel(CleanChannel), DefaultDecoderConfig())
	if got := rec.decoder.DecodeNBest(nil, 5); got != nil {
		t.Errorf("empty obs n-best: %v", got)
	}
	phones, _ := lex.Phones([]string{"car"})
	if got := rec.decoder.DecodeNBest(phones, 0); got != nil {
		t.Errorf("n=0 n-best: %v", got)
	}
}

func TestNBestContainsTruthMoreOftenThanOneBest(t *testing.T) {
	lex, model := testSetup(t)
	rec := NewRecognizer(lex, model, NewChannel(CallCenterChannel), DefaultDecoderConfig())
	ref := strings.Fields("my name is smith")
	phones, err := lex.Phones(ref)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(33)
	oneBest, inNBest := 0, 0
	const trials = 25
	for i := 0; i < trials; i++ {
		obs := rec.Channel.Corrupt(r.Split(uint64(i)), phones)
		nbest := rec.decoder.DecodeNBest(obs, 8)
		want := strings.Join(ref, " ")
		for rank, h := range nbest {
			if strings.Join(h.Words, " ") == want {
				inNBest++
				if rank == 0 {
					oneBest++
				}
				break
			}
		}
	}
	if inNBest < oneBest {
		t.Fatalf("impossible: truth in n-best %d < 1-best %d", inNBest, oneBest)
	}
	if inNBest == 0 {
		t.Error("truth never in 8-best across 25 trials")
	}
}

func TestTrigramDecoderBeatsUnigram(t *testing.T) {
	lex, _ := testSetup(t)
	build := func(order int) lm.Model {
		tr := lm.NewTrainer(order)
		corpus := [][]string{
			strings.Fields("i want to book a car"),
			strings.Fields("i want to book a full size car"),
			strings.Fields("my name is smith"),
			strings.Fields("a good rate please"),
			strings.Fields("the rate for the car"),
		}
		tr.AddCorpus(corpus)
		tr.AddCorpus(corpus)
		m, err := tr.Build()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := strings.Fields("i want to book a full size car")
	phones, err := lex.Phones(ref)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(63)
	ch := NewChannel(TelephoneChannel)
	uniWER, triWER := &WERStats{}, &WERStats{}
	uni := NewRecognizer(lex, build(1), ch, DefaultDecoderConfig())
	tri := NewRecognizer(lex, build(3), ch, DefaultDecoderConfig())
	for i := 0; i < 20; i++ {
		obs := ch.Corrupt(r.Split(uint64(i)), phones)
		uniWER.Add(Align(ref, uni.TranscribePhones(obs)))
		triWER.Add(Align(ref, tri.TranscribePhones(obs)))
	}
	if triWER.WER() > uniWER.WER() {
		t.Errorf("trigram WER %v should not exceed unigram %v", triWER.WER(), uniWER.WER())
	}
}

func TestTrigramContextUsed(t *testing.T) {
	lex, _ := testSetup(t)
	tr := lm.NewTrainer(3)
	tr.AddCorpus([][]string{
		strings.Fields("i want to book a car"),
		strings.Fields("book a reservation for smith"),
	})
	model, err := tr.Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecognizer(lex, model, NewChannel(ChannelConfig{}), DefaultDecoderConfig())
	ref := strings.Fields("i want to book a car")
	hyp, err := rec.Transcribe(rng.New(1), ref)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(hyp, " ") != strings.Join(ref, " ") {
		t.Errorf("trigram clean decode: %v", hyp)
	}
}
