package miners

import (
	"sort"
	"strings"

	"webfountain/internal/store"
)

// Trend is the corpus-level trending miner: it buckets the sentiment
// annotations written by the sentiment miner by month and reports how a
// subject's sentiment moves over time — the market-trend tracking of the
// paper's reputation management application.
type Trend struct {
	// SentimentMiner is the annotation name to consume (default
	// "sentiment").
	SentimentMiner string

	// series maps subject -> month ("2004-07") -> counts.
	series map[string]map[string]*MonthCounts
}

// MonthCounts aggregates one subject-month.
type MonthCounts struct {
	Positive, Negative int
}

// Share returns the positive share of the month (0 when empty).
func (m MonthCounts) Share() float64 {
	if m.Positive+m.Negative == 0 {
		return 0
	}
	return float64(m.Positive) / float64(m.Positive+m.Negative)
}

// Run scans every stored entity for sentiment annotations and buckets
// them by the entity's month.
func (t *Trend) Run(st *store.Store) error {
	miner := t.SentimentMiner
	if miner == "" {
		miner = "sentiment"
	}
	t.series = map[string]map[string]*MonthCounts{}
	return forEach(st, func(e *store.Entity) error {
		month := monthOf(e.Date)
		if month == "" {
			return nil
		}
		for _, a := range e.AnnotationsBy(miner) {
			if a.Type != "polarity" {
				continue
			}
			// Subjects are case-insensitive, matching the sentiment
			// index: "Aurora" annotations and an "aurora" query meet.
			key := strings.ToLower(a.Key)
			bySubject, ok := t.series[key]
			if !ok {
				bySubject = map[string]*MonthCounts{}
				t.series[key] = bySubject
			}
			mc, ok := bySubject[month]
			if !ok {
				mc = &MonthCounts{}
				bySubject[month] = mc
			}
			switch a.Value {
			case "+":
				mc.Positive++
			case "-":
				mc.Negative++
			}
		}
		return nil
	})
}

// monthOf extracts "YYYY-MM" from a "YYYY-MM-DD" date ("" if malformed).
func monthOf(date string) string {
	if len(date) < 7 || date[4] != '-' {
		return ""
	}
	return date[:7]
}

// MonthPoint is one month of a subject's sentiment series.
type MonthPoint struct {
	Month string
	MonthCounts
}

// Series returns a subject's sentiment by month, chronologically. The
// subject is case-insensitive.
func (t *Trend) Series(subject string) []MonthPoint {
	bySubject := t.series[strings.ToLower(subject)]
	out := make([]MonthPoint, 0, len(bySubject))
	for m, c := range bySubject {
		out = append(out, MonthPoint{Month: m, MonthCounts: *c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Month < out[j].Month })
	return out
}

// Subjects returns every subject with trend data, sorted.
func (t *Trend) Subjects() []string {
	out := make([]string, 0, len(t.series))
	for s := range t.series {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Momentum returns the change in positive share between the first and
// second half of a subject's series (positive = improving reputation),
// and false when there is not enough data to split.
func (t *Trend) Momentum(subject string) (float64, bool) {
	pts := t.Series(subject)
	if len(pts) < 2 {
		return 0, false
	}
	mid := len(pts) / 2
	early, late := MonthCounts{}, MonthCounts{}
	for _, p := range pts[:mid] {
		early.Positive += p.Positive
		early.Negative += p.Negative
	}
	for _, p := range pts[mid:] {
		late.Positive += p.Positive
		late.Negative += p.Negative
	}
	if early.Positive+early.Negative == 0 || late.Positive+late.Negative == 0 {
		return 0, false
	}
	return late.Share() - early.Share(), true
}
