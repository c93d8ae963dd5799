// Package phonetics models the sound layer of the ASR substrate: a
// US-English phoneme inventory (ARPAbet, 39 phones plus silence — the
// paper's system uses a 54-phone US English set; we use the standard
// CMU 39-phone collapse of the same inventory), a rule-based
// grapheme-to-phoneme converter used to build pronunciation lexicons,
// articulatory confusion classes that parameterize the acoustic noise
// channel, and classic phonetic keys (Soundex and a Metaphone-style
// consonant skeleton) used by the fuzzy database indexes.
//
// The G2P rules do not need to be a perfect model of English orthography.
// What matters for the reproduction is *consistency* (the channel and the
// decoder share one lexicon) and *confusability structure* (similarly
// spelled or similarly sounding words map to nearby phone strings), which
// is exactly what makes name recognition hard in Table I of the paper.
package phonetics

// Phone is an index into the ARPAbet inventory.
type Phone uint8

// The phoneme inventory. Sil is a reserved silence/boundary marker.
const (
	Sil Phone = iota
	AA        // odd
	AE        // at
	AH        // hut
	AO        // ought
	AW        // cow
	AY        // hide
	B
	CH
	D
	DH // thee
	EH // Ed
	ER // hurt
	EY // ate
	F
	G
	HH
	IH // it
	IY // eat
	JH
	K
	L
	M
	N
	NG
	OW // oat
	OY // toy
	P
	R
	S
	SH
	T
	TH // theta
	UH // hood
	UW // two
	V
	W
	Y
	Z
	ZH            // pleasure
	NumPhones int = iota
)

var phoneNames = [...]string{
	"sil", "AA", "AE", "AH", "AO", "AW", "AY", "B", "CH", "D", "DH", "EH",
	"ER", "EY", "F", "G", "HH", "IH", "IY", "JH", "K", "L", "M", "N", "NG",
	"OW", "OY", "P", "R", "S", "SH", "T", "TH", "UH", "UW", "V", "W", "Y",
	"Z", "ZH",
}

// String returns the ARPAbet name of the phone.
func (p Phone) String() string {
	if int(p) < len(phoneNames) {
		return phoneNames[p]
	}
	return "?"
}

// Class groups phones by articulatory similarity; the acoustic channel
// substitutes within a class far more often than across classes, which is
// what makes "similar sounding names get substituted" (§IV.A.1) emerge
// naturally from the simulation.
type Class uint8

// Articulatory classes.
const (
	ClassSilence Class = iota
	ClassVowelFront
	ClassVowelBack
	ClassVowelDiphthong
	ClassStopVoiced
	ClassStopUnvoiced
	ClassFricativeVoiced
	ClassFricativeUnvoiced
	ClassAffricate
	ClassNasal
	ClassLiquid
	ClassGlide
	NumClasses int = iota
)

// phoneClass is indexed by Phone: any byte value is a valid index, and a
// value outside the inventory reads as ClassSilence (the zero Class).
var phoneClass = [256]Class{
	Sil: ClassSilence,
	IY:  ClassVowelFront, IH: ClassVowelFront, EH: ClassVowelFront, AE: ClassVowelFront,
	AA: ClassVowelBack, AO: ClassVowelBack, AH: ClassVowelBack, UH: ClassVowelBack,
	UW: ClassVowelBack, ER: ClassVowelBack,
	EY: ClassVowelDiphthong, AY: ClassVowelDiphthong, OY: ClassVowelDiphthong,
	AW: ClassVowelDiphthong, OW: ClassVowelDiphthong,
	B: ClassStopVoiced, D: ClassStopVoiced, G: ClassStopVoiced,
	P: ClassStopUnvoiced, T: ClassStopUnvoiced, K: ClassStopUnvoiced,
	V: ClassFricativeVoiced, DH: ClassFricativeVoiced, Z: ClassFricativeVoiced, ZH: ClassFricativeVoiced,
	F: ClassFricativeUnvoiced, TH: ClassFricativeUnvoiced, S: ClassFricativeUnvoiced,
	SH: ClassFricativeUnvoiced, HH: ClassFricativeUnvoiced,
	CH: ClassAffricate, JH: ClassAffricate,
	M: ClassNasal, N: ClassNasal, NG: ClassNasal,
	L: ClassLiquid, R: ClassLiquid,
	W: ClassGlide, Y: ClassGlide,
}

// ClassOf returns the articulatory class of p.
func ClassOf(p Phone) Class { return phoneClass[p] }

// IsVowel reports whether p is a vowel or diphthong.
func IsVowel(p Phone) bool {
	switch ClassOf(p) {
	case ClassVowelFront, ClassVowelBack, ClassVowelDiphthong:
		return true
	}
	return false
}

// ClassMembers returns all phones in the given class, in inventory order.
func ClassMembers(c Class) []Phone {
	var out []Phone
	for p := Phone(0); int(p) < NumPhones; p++ {
		if ClassOf(p) == c {
			out = append(out, p)
		}
	}
	return out
}

// AllPhones returns the full inventory excluding silence.
func AllPhones() []Phone {
	out := make([]Phone, 0, NumPhones-1)
	for p := Phone(1); int(p) < NumPhones; p++ {
		out = append(out, p)
	}
	return out
}
