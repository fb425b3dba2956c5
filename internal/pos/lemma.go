package pos

import "strings"

// irregularLemmas maps irregular verb inflections to their base form.
var irregularLemmas = map[string]string{
	"is": "be", "are": "be", "am": "be", "was": "be", "were": "be",
	"been": "be", "being": "be", "'s": "be", "'re": "be", "'m": "be",
	"has": "have", "had": "have", "having": "have",
	"does": "do", "did": "do", "done": "do", "doing": "do",
	"took": "take", "taken": "take", "takes": "take", "taking": "take",
	"made": "make", "makes": "make", "making": "make",
	"gave": "give", "given": "give", "gives": "give", "giving": "give",
	"got": "get", "gotten": "get", "gets": "get", "getting": "get",
	"went": "go", "gone": "go", "goes": "go", "going": "go",
	"came": "come", "comes": "come", "coming": "come",
	"said": "say", "says": "say", "saying": "say",
	"found": "find", "finds": "find", "finding": "find",
	"felt": "feel", "feels": "feel", "feeling": "feel",
	"kept": "keep", "keeps": "keep", "keeping": "keep",
	"left": "leave", "leaves": "leave", "leaving": "leave",
	"held": "hold", "holds": "hold", "holding": "hold",
	"broke": "break", "broken": "break", "breaks": "break", "breaking": "break",
	"bought": "buy", "buys": "buy", "buying": "buy",
	"sold": "sell", "sells": "sell", "selling": "sell",
	"built": "build", "builds": "build", "building": "build",
	"fell": "fall", "fallen": "fall", "falls": "fall", "falling": "fall",
	"grew": "grow", "grown": "grow", "grows": "grow", "growing": "grow",
	"knew": "know", "known": "know", "knows": "know", "knowing": "know",
	"ran": "run", "runs": "run", "running": "run",
	"saw": "see", "seen": "see", "sees": "see", "seeing": "see",
	"sent": "send", "sends": "send", "sending": "send",
	"shot": "shoot", "shoots": "shoot", "shooting": "shoot",
	"spent": "spend", "spends": "spend", "spending": "spend",
	"stood": "stand", "stands": "stand", "standing": "stand",
	"thought": "think", "thinks": "think", "thinking": "think",
	"told": "tell", "tells": "tell", "telling": "tell",
	"wore": "wear", "worn": "wear", "wears": "wear", "wearing": "wear",
	"won": "win", "wins": "win", "winning": "win",
	"wrote": "write", "written": "write", "writes": "write", "writing": "write",
	"lost": "lose", "loses": "lose", "losing": "lose",
	"met": "meet", "meets": "meet", "meeting": "meet",
	"paid": "pay", "pays": "pay", "paying": "pay",
	"froze": "freeze", "frozen": "freeze", "freezes": "freeze",
	"sang": "sing", "sung": "sing", "sings": "sing", "singing": "sing",
	"rose": "rise", "risen": "rise", "rises": "rise", "rising": "rise",
	"beaten": "beat", "beats": "beat", "beating": "beat",
	"dies": "die", "died": "die", "dying": "die",
	"lies": "lie", "lied": "lie", "lying": "lie",
	"ties": "tie", "tied": "tie", "tying": "tie",
}

// doubledConsonantStems recognizes -ed/-ing forms with a doubled final
// consonant whose base keeps a single one ("stopped" -> "stop").
func undouble(stem string) string {
	n := len(stem)
	if n >= 2 && stem[n-1] == stem[n-2] && isConsonant(stem[n-1]) && stem[n-1] != 'l' && stem[n-1] != 's' {
		return stem[:n-1]
	}
	return stem
}

func isConsonant(c byte) bool {
	switch c {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	}
	return c >= 'a' && c <= 'z'
}

// VerbLemma returns the base form of a verb inflection: "takes" -> "take",
// "impressed" -> "impress", "running" -> "run". Unknown regular forms are
// stemmed with suffix-stripping rules; words that are not inflections are
// returned unchanged (lower-cased).
func VerbLemma(w string) string {
	stem, suffix := lemmaParts(strings.ToLower(w))
	if suffix == "" {
		return stem
	}
	return stem + suffix
}

// lemmaParts returns the lemma of the lower-cased inflection lw as
// stem+suffix: stem is an irregular base or a prefix of lw, and suffix
// the "y" or "e" a rule restores, or "". A caller that only compares the
// lemma need not build it.
func lemmaParts(lw string) (stem, suffix string) {
	if base, ok := irregularLemmas[lw]; ok {
		return base, ""
	}
	// Every rule strips an ending in s, d or g: any other word is its own
	// lemma, without a try of each rule.
	if lw == "" || lw[len(lw)-1] != 's' && lw[len(lw)-1] != 'd' && lw[len(lw)-1] != 'g' {
		return lw, ""
	}
	switch {
	case strings.HasSuffix(lw, "ies") && len(lw) > 4:
		return lw[:len(lw)-3], "y"
	case strings.HasSuffix(lw, "sses"), strings.HasSuffix(lw, "shes"),
		strings.HasSuffix(lw, "ches"), strings.HasSuffix(lw, "xes"),
		strings.HasSuffix(lw, "zes"):
		return lw[:len(lw)-2], ""
	case strings.HasSuffix(lw, "oes") && len(lw) > 3:
		return lw[:len(lw)-2], ""
	case strings.HasSuffix(lw, "s") && !strings.HasSuffix(lw, "ss") && len(lw) > 3:
		return lw[:len(lw)-1], ""
	case strings.HasSuffix(lw, "ied") && len(lw) > 4:
		return lw[:len(lw)-3], "y"
	case strings.HasSuffix(lw, "ing") && len(lw) > 5:
		return restoreE(undouble(lw[:len(lw)-3]))
	case strings.HasSuffix(lw, "ed") && len(lw) > 4:
		return restoreE(undouble(lw[:len(lw)-2]))
	}
	return lw, ""
}

// eDroppingSuffixes are stem endings that nearly always had a trailing
// e, in the order restoreE tries them.
var eDroppingSuffixes = []string{"at", "iz", "is", "us", "as", "os", "ang", "ast",
	"vid", "cid", "sid",
	"uc", "ac", "ic", "nc", "rc", "g", "v", "u", "ir", "ur", "or",
	"ibl", "abl", "pl", "cl", "bl", "dl", "tl", "gl", "fl", "kl", "sl", "zl",
	"quir", "par", "car", "tur"}

// eDroppingByLast groups eDroppingSuffixes by their last byte, keeping
// their order: only the group of the stem's last byte can match, so a
// stem is compared with a few suffixes instead of all of them.
var eDroppingByLast = func() (t [256][]string) {
	for _, suf := range eDroppingSuffixes {
		c := suf[len(suf)-1]
		t[c] = append(t[c], suf)
	}
	return t
}()

// restoreE returns the "e" to add back to stems like "lov" -> "love" (but
// not "impress"). Heuristic: consonant + single vowel + consonant stems of
// length <= 5 and stems ending in typical e-dropping clusters get the e.
func restoreE(stem string) (string, string) {
	n := len(stem)
	if n == 0 {
		return stem, ""
	}
	// Stems ending in these clusters nearly always had a trailing e.
	for _, suf := range eDroppingByLast[stem[n-1]] {
		if strings.HasSuffix(stem, suf) {
			// "g" exception: "-ng" stays ("hang"), "-gg" handled by undouble.
			if suf == "g" && strings.HasSuffix(stem, "ng") {
				return stem, ""
			}
			return stem, "e"
		}
	}
	return stem, ""
}
