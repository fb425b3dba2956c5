package lexicon

import "webfountain/internal/pos"

// entryGroup is a run of embedded entries sharing a POS and a polarity.
// The tables are package-level literals of constants, so the compiler
// lays them out in the binary and nothing runs to build them.
type entryGroup struct {
	pol   Polarity
	tag   pos.Tag
	terms []string
}

// coreGroups is the embedded sentiment lexicon. It stands in for
// the paper's ~3000 manually validated entries merged from the General
// Inquirer, the Dictionary of Affect in Language and WordNet. Like the
// paper's lexicon it is dominated by adjectives, with a smaller set of
// nouns, verbs and adverbs. Coverage is intentionally not exhaustive —
// idiomatic and figurative sentiment ("a real gem", "falls flat") is
// absent, which is what bounds the sentiment miner's recall.
var coreGroups = []entryGroup{
	// --- positive adjectives ---
	{Positive, pos.JJ, []string{
		"excellent", "good", "great", "amazing", "awesome", "wonderful",
		"fantastic", "superb", "outstanding", "impressive", "remarkable",
		"brilliant", "stunning", "gorgeous", "beautiful", "crisp", "sharp",
		"vivid", "vibrant", "flawless", "perfect", "solid", "sturdy",
		"reliable", "responsive", "fast", "quick", "smooth", "intuitive",
		"comfortable", "compact", "lightweight", "durable", "versatile",
		"powerful", "accurate", "superior", "exceptional", "delightful",
		"pleasant", "satisfying", "functional", "useful", "handy",
		"affordable", "reasonable", "generous", "rich", "warm", "clean",
		"clear", "bright", "quiet", "catchy", "soulful", "haunting",
		"energetic", "lively", "upbeat", "memorable", "masterful",
		"polished", "melodic", "lyrical", "effective", "safe",
		"profitable", "robust", "steady", "stable", "strong", "welcome",
		"happy", "glad", "pleased", "satisfied", "thrilled", "delighted",
		"ecstatic", "fabulous", "marvelous", "terrific", "splendid",
		"magnificent", "phenomenal", "extraordinary", "admirable",
		"praiseworthy", "commendable", "favorable", "positive", "promising",
		"encouraging", "healthy", "beneficial", "valuable", "worthwhile",
		"enjoyable", "fun", "engaging", "charming", "elegant", "graceful",
		"stylish", "sleek", "premium", "top-notch", "first-rate",
		"well-built", "well-designed", "well-made", "user-friendly",
		"seamless", "effortless", "snappy", "speedy", "nimble", "agile",
		"precise", "consistent", "dependable", "trustworthy", "honest",
		"innovative", "creative", "original", "fresh", "modern",
		"convenient", "practical", "efficient", "economical", "ergonomic",
		"roomy", "spacious", "generous", "ample", "plentiful", "abundant",
		"impeccable", "immaculate", "pristine", "luminous", "radiant",
		"smart", "clever", "intelligent", "capable", "competent",
		"skillful", "talented", "gifted", "inspired", "inspiring",
		"uplifting", "moving", "touching", "stirring", "captivating",
		"mesmerizing", "enchanting", "riveting", "gripping", "compelling",
		"rewarding", "gratifying", "refreshing", "invigorating", "soothing",
		"relaxing", "calming", "crystal-clear", "impressed", "amazed", "natural", "authentic",
		"faithful", "true", "balanced", "harmonious", "cohesive", "tight",
		"punchy", "dynamic", "expressive", "nuanced", "sophisticated",
		"mature", "confident", "assured", "bold", "daring", "adventurous",
	}},

	// --- negative adjectives ---
	{Negative, pos.JJ, []string{
		"bad", "poor", "terrible", "horrible", "awful", "disappointing",
		"mediocre", "sluggish", "slow", "weak", "flimsy", "cheap",
		"noisy", "grainy", "blurry", "dim", "dull", "muddy", "harsh",
		"clunky", "bulky", "heavy", "awkward", "confusing", "frustrating",
		"annoying", "unreliable", "defective", "faulty", "useless",
		"worthless", "inadequate", "inferior", "unacceptable", "dreadful",
		"abysmal", "lousy", "shoddy", "subpar", "overpriced", "expensive",
		"costly", "pricey", "bland", "forgettable", "repetitive",
		"monotonous", "uninspired", "derivative", "generic", "ineffective",
		"unsafe", "harmful", "dangerous", "hazardous", "risky", "toxic",
		"unprofitable", "volatile", "unstable", "sad", "angry", "upset",
		"unhappy", "dissatisfied", "displeased", "disgusted", "appalled",
		"horrified", "furious", "disappointed", "frustrated", "irritated",
		"aggravated", "annoyed", "miserable", "pathetic", "pitiful",
		"atrocious", "deplorable", "disastrous", "catastrophic", "dismal",
		"grim", "bleak", "negative", "unfavorable", "discouraging",
		"troubling", "worrying", "alarming", "disturbing", "distressing",
		"unpleasant", "disagreeable", "objectionable", "offensive",
		"obnoxious", "intolerable", "unbearable", "insufferable",
		"problematic", "flawed", "broken", "buggy", "glitchy", "erratic",
		"inconsistent", "unpredictable", "undependable", "untrustworthy",
		"deceptive", "misleading", "dishonest", "fraudulent", "shady",
		"sloppy", "careless", "negligent", "reckless", "irresponsible",
		"incompetent", "inept", "clumsy", "crude", "primitive", "outdated",
		"obsolete", "stale", "tired", "boring", "tedious", "dreary",
		"lifeless", "soulless", "hollow", "shallow", "thin", "weak-sounding",
		"tinny", "muffled", "distorted", "garbled", "scratchy", "shrill",
		"grating", "jarring", "dissonant", "off-key", "out-of-tune",
		"uncomfortable", "cramped", "stiff", "rigid", "brittle", "fragile",
		"cheap-feeling", "plasticky", "ugly", "hideous", "unsightly",
		"washed-out", "faded", "overexposed", "underexposed", "soft",
		"fuzzy", "pixelated", "jagged", "choppy", "laggy", "unresponsive",
		"painful", "agonizing", "excruciating", "nightmarish", "hellish",
		"regrettable", "lamentable", "unfortunate", "woeful", "sorry",
		"second-rate", "third-rate", "low-quality", "low-grade", "bottom",
		"excessive", "bloated", "wasteful", "inefficient", "impractical",
		"cumbersome", "unwieldy", "convoluted", "complicated", "cryptic",
		"counterintuitive", "baffling", "bewildering", "incomprehensible",
		"contaminated", "polluted", "dirty", "filthy", "grimy", "corrosive",
		"sick", "ill", "nauseous", "dizzy", "lethargic", "fatigued",
	}},

	// --- positive nouns ---
	{Positive, pos.NN, []string{
		"masterpiece", "gem", "delight", "pleasure", "joy", "triumph",
		"success", "winner", "bargain", "steal", "treat", "marvel",
		"wonder", "beauty", "excellence", "perfection", "brilliance",
		"strength", "advantage", "benefit", "improvement",
		"breakthrough", "innovation", "progress", "achievement",
		"satisfaction", "praise", "acclaim", "applause", "admiration",
		"confidence", "trust", "reliability", "durability", "clarity",
		"precision", "comfort", "convenience", "elegance", "charm",
		"grace", "polish", "finesse", "craftsmanship", "virtuosity",
		"gain", "profit", "growth", "recovery", "upturn", "boom",
		"remedy", "cure", "relief", "healing", "wellness",
	}},

	// --- negative nouns ---
	{Negative, pos.NN, []string{
		"disaster", "catastrophe", "failure", "flop", "dud", "mess",
		"nightmare", "disappointment", "letdown", "ripoff", "junk",
		"garbage", "trash", "waste", "problem", "issue", "flaw",
		"defect", "fault", "weakness", "shortcoming", "drawback",
		"disadvantage", "downside", "deficiency", "lack", "shortage",
		"complaint", "grievance", "frustration", "annoyance", "nuisance",
		"hassle", "headache", "trouble", "difficulty", "struggle",
		"breakdown", "malfunction", "glitch", "bug", "error", "mistake",
		"blunder", "fiasco", "debacle", "scandal", "controversy",
		"crisis", "emergency", "danger", "hazard", "risk", "threat",
		"damage", "harm", "injury", "loss", "decline", "downturn",
		"slump", "crash", "collapse", "recession", "deficit",
		"contamination", "pollution", "spill", "leak", "accident",
		"violation", "penalty", "fine", "lawsuit", "recall",
		"side-effect", "overdose", "addiction", "relapse", "infection",
		"noise", "distortion", "lag", "delay", "crack", "scratch",
		"dent", "wear", "corrosion", "rust",
	}},

	// --- positive verbs (self-polar predicates) ---
	{Positive, pos.VB, []string{
		"love", "enjoy", "adore", "admire", "appreciate", "praise",
		"recommend", "applaud", "celebrate", "impress", "delight",
		"please", "satisfy", "excel", "shine", "thrive", "flourish",
		"improve", "enhance", "boost", "strengthen", "succeed",
		"outperform", "surpass", "exceed", "win", "triumph", "reward",
		"benefit", "help", "heal", "cure", "comfort", "reassure",
	}},

	// --- negative verbs ---
	{Negative, pos.VB, []string{
		"hate", "dislike", "despise", "loathe", "detest", "regret",
		"disappoint", "frustrate", "annoy", "irritate", "aggravate",
		"anger", "upset", "disgust", "appall", "horrify", "fail",
		"struggle", "suffer", "lack", "break", "crash", "freeze",
		"malfunction", "deteriorate", "degrade", "worsen", "decline",
		"criticize", "condemn", "denounce", "blame", "complain",
		"damage", "harm", "hurt", "ruin", "destroy", "waste",
		"pollute", "contaminate", "leak", "spill", "violate",
		"overheat", "jam", "rattle", "scratch", "blur", "stall",
	}},

	// --- positive adverbs ---
	{Positive, pos.RB, []string{
		"flawlessly", "beautifully", "superbly", "brilliantly",
		"wonderfully", "excellently", "admirably", "gracefully",
		"smoothly", "reliably", "consistently", "effortlessly",
		"perfectly", "impressively", "remarkably well",
	}},

	// --- negative adverbs ---
	{Negative, pos.RB, []string{
		"poorly", "badly", "terribly", "horribly", "awfully",
		"miserably", "dismally", "sloppily", "erratically",
		"unreliably", "painfully", "frustratingly", "annoyingly",
	}},

	// --- multi-word terms ---
	{Positive, pos.JJ, []string{"high quality", "top quality"}},
	{Negative, pos.JJ, []string{"poor quality", "low quality"}},
	{Positive, pos.JJ, []string{
		"state of the art", "state-of-the-art", "top notch", "second to none",
		"best in class", "worth every penny", "highly recommended",
	}},
	{Negative, pos.NN, []string{
		"piece of junk", "waste of money", "pain in the neck", "deal breaker",
		"short battery life",
	}},
	{Positive, pos.NN, []string{"long battery life"}},
}
