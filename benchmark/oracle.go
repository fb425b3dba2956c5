package main

import (
	"fmt"
	"sort"
	"strings"

	"webfountain"
)

// reference mines exactly the acked documents offline, in process — an
// in-memory Platform.Ingest plus the batch SentimentMiner.Run, the path
// the online tier is specified to agree with — and renders the answers
// the server must give.
func reference(docs []webfountain.Document) (answers, error) {
	var want answers
	p := webfountain.NewPlatform(webfountain.PlatformConfig{})
	defer p.Close()
	// Platform.Ingest may keep the slice; the stream's copy stays intact.
	if _, err := p.Ingest(append([]webfountain.Document(nil), docs...)); err != nil {
		return want, fmt.Errorf("reference ingest: %w", err)
	}
	m, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		return want, err
	}
	facts, err := m.Run(p)
	if err != nil {
		return want, fmt.Errorf("reference mine: %w", err)
	}
	per := map[string]*subjectRow{}
	for _, f := range facts {
		key := strings.ToLower(f.Subject)
		row := per[key]
		if row == nil {
			row = &subjectRow{Subject: key}
			per[key] = row
		}
		if f.Polarity == webfountain.Positive {
			row.Positive++
			want.Overview.Positive++
		} else {
			row.Negative++
			want.Overview.Negative++
		}
	}
	want.Overview.Documents = p.NumEntities()
	want.Overview.Facts = len(facts)
	want.Overview.Subjects = len(per)
	for _, row := range per {
		want.Subjects = append(want.Subjects, *row)
	}
	sort.Slice(want.Subjects, func(i, j int) bool { return want.Subjects[i].Subject < want.Subjects[j].Subject })
	return want, nil
}

// diffAnswers lists every disagreement between two sets of answers
// (empty when they agree).
func diffAnswers(gotName string, got answers, wantName string, want answers) []string {
	var out []string
	if got.Overview != want.Overview {
		out = append(out, fmt.Sprintf("/api/overview: %s %+v, %s %+v", gotName, got.Overview, wantName, want.Overview))
	}
	gotRows := map[string]subjectRow{}
	for _, r := range got.Subjects {
		gotRows[r.Subject] = r
	}
	for _, w := range want.Subjects {
		g, ok := gotRows[w.Subject]
		delete(gotRows, w.Subject)
		if !ok {
			out = append(out, fmt.Sprintf("/api/subjects: %q missing from %s (%s has +%d/-%d)", w.Subject, gotName, wantName, w.Positive, w.Negative))
		} else if g != w {
			out = append(out, fmt.Sprintf("/api/subjects: %q %s +%d/-%d, %s +%d/-%d", w.Subject, gotName, g.Positive, g.Negative, wantName, w.Positive, w.Negative))
		}
	}
	for s := range gotRows {
		out = append(out, fmt.Sprintf("/api/subjects: %q only in %s", s, gotName))
	}
	sort.Strings(out)
	if len(out) > 12 {
		out = append(out[:12], fmt.Sprintf("... and %d more", len(out)-12))
	}
	return out
}
