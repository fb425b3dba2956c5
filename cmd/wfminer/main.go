// Command wfminer runs the sentiment miner over a generated corpus, in
// either operational mode, and prints the extracted (subject, sentiment)
// facts. It exercises the full platform pipeline: corpus generation →
// ingestion → parallel mining → sentiment index → reporting.
//
// Usage:
//
//	wfminer [-corpus camera|music|petroleum|pharma|news] [-docs n]
//	        [-mode subjects|entities] [-query subject] [-seed n] [-v]
//
// With -mode subjects (the default), the domain's products/companies are
// the predefined subjects of interest. With -mode entities, the named
// entity spotter discovers subjects and -query looks one up in the
// sentiment index afterwards.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"webfountain"
	"webfountain/internal/corpus"
)

func main() {
	corpusName := flag.String("corpus", "camera", "corpus: camera, music, petroleum, pharma, news")
	docs := flag.Int("docs", 50, "number of documents to generate")
	mode := flag.String("mode", "subjects", "operational mode: subjects (predefined) or entities (query-time)")
	query := flag.String("query", "", "subject to query after mining (entities mode)")
	seed := flag.Int64("seed", 1, "corpus seed")
	verbose := flag.Bool("v", false, "print every extracted fact")
	analytics := flag.Bool("analytics", false, "also run the standard platform miner suite")
	trend := flag.String("trend", "", "print the monthly sentiment trend for a subject")
	flag.Parse()

	gen, subjects, err := corpus.Named(*corpusName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	generated := gen(*seed, *docs)

	platform := webfountain.NewPlatform(webfountain.PlatformConfig{})
	pubDocs := make([]webfountain.Document, len(generated))
	for i := range generated {
		pubDocs[i] = webfountain.Document{
			ID:     generated[i].ID,
			Source: generated[i].Source,
			Title:  generated[i].Title,
			Date:   generated[i].Date,
			Links:  generated[i].Links,
			Text:   generated[i].Text(),
		}
	}
	if _, err := platform.Ingest(pubDocs); err != nil {
		fmt.Fprintln(os.Stderr, "ingest:", err)
		os.Exit(1)
	}
	fmt.Printf("ingested %d %s documents\n", platform.NumEntities(), *corpusName)

	cfg := webfountain.MinerConfig{}
	if *mode == "subjects" {
		for _, s := range subjects {
			cfg.Subjects = append(cfg.Subjects, webfountain.Subject{Canonical: s})
		}
	}
	miner, err := webfountain.NewSentimentMiner(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "miner:", err)
		os.Exit(1)
	}

	facts, err := miner.Run(platform)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mining:", err)
		os.Exit(1)
	}
	fmt.Printf("extracted %d (subject, sentiment) facts\n\n", len(facts))

	if *verbose {
		for _, f := range facts {
			fmt.Printf("  %-10s s%-3d (%s, %s)  %q\n", f.DocID, f.Sentence, f.Subject, f.Polarity, f.Snippet)
		}
		fmt.Println()
	}

	if *analytics {
		rep, err := platform.RunAnalytics(webfountain.AnalyticsConfig{TopTerms: 10, Clusters: 3})
		if err != nil {
			fmt.Fprintln(os.Stderr, "analytics:", err)
			os.Exit(1)
		}
		fmt.Printf("analytics: %d docs, %d tokens, vocabulary %d, avg %.1f tokens/doc\n",
			rep.Stats.Documents, rep.Stats.Tokens, rep.Stats.Vocabulary, rep.Stats.AvgDocTokens)
		fmt.Printf("  duplicate clusters: %d\n", len(rep.DuplicateClusters))
		if len(rep.TopRanked) > 0 {
			fmt.Printf("  top ranked page: %s (%.4f)\n", rep.TopRanked[0].ID, rep.TopRanked[0].Score)
		}
		for i, c := range rep.Clusters {
			fmt.Printf("  cluster %d (%d docs): %v\n", i, c.Size, c.TopTerms)
		}
		fmt.Println()
	}

	if *trend != "" {
		series, momentum, ok := platform.SentimentTrend(*trend)
		if !ok {
			fmt.Printf("no trend data for %q\n", *trend)
		} else {
			fmt.Printf("sentiment trend for %q (momentum %+.2f):\n", *trend, momentum)
			for _, pt := range series {
				fmt.Printf("  %s  %3d+ %3d-\n", pt.Month, pt.Positive, pt.Negative)
			}
		}
		fmt.Println()
	}

	if *query != "" {
		pos, neg := miner.Counts(*query)
		fmt.Printf("query %q: %d positive, %d negative\n", *query, pos, neg)
		for _, e := range miner.Query(*query) {
			fmt.Printf("  [%s] %s s%d: %q\n", e.Polarity, e.DocID, e.Sentence, e.Snippet)
		}
		return
	}

	// Reputation summary per subject.
	type rep struct {
		subject  string
		pos, neg int
	}
	var reps []rep
	for _, s := range miner.Subjects() {
		p, n := miner.Counts(s)
		reps = append(reps, rep{s, p, n})
	}
	// Subjects with equal mention counts must keep a deterministic order,
	// or the report shuffles between runs (Subjects() is sorted, but a
	// non-stable sort on the count alone would scramble the ties).
	sort.SliceStable(reps, func(i, j int) bool {
		if ti, tj := reps[i].pos+reps[i].neg, reps[j].pos+reps[j].neg; ti != tj {
			return ti > tj
		}
		return reps[i].subject < reps[j].subject
	})
	fmt.Printf("%-24s %9s %9s %10s\n", "subject", "positive", "negative", "pos share")
	for i, r := range reps {
		if i >= 20 {
			fmt.Printf("... and %d more subjects\n", len(reps)-20)
			break
		}
		share := 0.0
		if r.pos+r.neg > 0 {
			share = 100 * float64(r.pos) / float64(r.pos+r.neg)
		}
		fmt.Printf("%-24s %9d %9d %9.0f%%\n", r.subject, r.pos, r.neg, share)
	}
}
