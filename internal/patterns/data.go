package patterns

// defaultPatternSource is the embedded predicate pattern database in the
// paper's textual notation. It covers the trans verbs (be, offer, take,
// ...) whose polarity comes from a source phrase, and the self-polar
// predicates (impress, disappoint, fail, ...).
const defaultPatternSource = `
# --- trans verbs: copulas transfer the complement's polarity to the subject
be CP SP
seem CP SP
look CP SP
sound CP SP
feel CP SP
appear CP SP
remain CP SP
stay CP SP
become CP SP
get CP SP
turn CP SP
prove CP SP
taste CP SP
smell CP SP

# --- trans verbs: the object's polarity flows to the subject
offer OP SP
provide OP SP
deliver OP SP
produce OP SP
give OP SP
take OP SP
make OP SP
have OP SP
feature OP SP
include OP SP
boast OP SP
show OP SP
display OP SP
exhibit OP SP
yield OP SP
generate OP SP
capture OP SP
record OP SP
render OP SP
sport OP SP
pack OP SP
carry OP SP
add OP SP
bring OP SP
contain OP SP
hold OP SP
post OP SP
report OP SP
announce OP SP
achieve OP SP
earn OP SP
win OP SP
receive OP SP
gain OP SP
see OP SP

# --- trans via prepositional source
come PP(with) SP
ship PP(with) SP
arrive PP(with) SP

# --- fixed-polarity predicates, sentiment directed at the subject
excel + SP
shine + SP
impress + SP
outperform + SP
surpass + SP
exceed + SP
succeed + SP
thrive + SP
flourish + SP
improve + SP
satisfy + SP
delight + SP
please + SP
fail - SP
lack - SP
suffer - SP
struggle - SP
disappoint - SP
frustrate - SP
annoy - SP
irritate - SP
break - SP
crash - SP
freeze - SP
malfunction - SP
overheat - SP
jam - SP
rattle - SP
stall - SP
die - SP
drain - SP
deteriorate - SP
degrade - SP
worsen - SP
decline - SP
leak - SP
spill - SP
require - SP
need - SP
underperform - SP
misfire - SP

# --- fixed-polarity predicates, sentiment directed at the object
love + OP
adore + OP
enjoy + OP
admire + OP
appreciate + OP
praise + OP
recommend + OP
applaud + OP
celebrate + OP
endorse + OP
favor + OP
prefer + OP
like + OP
treasure + OP
hate - OP
dislike - OP
despise - OP
loathe - OP
detest - OP
regret - OP
criticize - OP
condemn - OP
denounce - OP
blame - OP
avoid - OP
dread - OP
ridicule - OP
pan - OP
slam - OP
dismiss - OP
ruin - OP
destroy - OP
damage - OP
harm - OP
hurt - OP
botch - OP
bungle - OP

# --- passive attributions: the by/with phrase names what caused the feeling
impress + PP(by;with)
delight + PP(by;with)
please + PP(by;with)
satisfy + PP(by;with)
amaze + PP(by;with)
thrill + PP(by;with)
disappoint - PP(by;with)
frustrate - PP(by;with)
annoy - PP(by;with)
irritate - PP(by;with)
disgust - PP(by;with)
appall - PP(by;with)
underwhelm - PP(by;with)
bother - PP(by;with)
trouble - PP(by;with)

# --- suffer/benefit with prepositional cause, sentiment on subject
benefit PP(from) SP
`

// defaultPatterns parses the embedded database; the source is a compile-
// time constant, so parsing cannot fail after the package's own tests run.
func defaultPatterns() []Pattern {
	ps, err := parse(defaultPatternSource)
	if err != nil {
		panic("patterns: embedded database invalid: " + err.Error())
	}
	return ps
}
