// Platform tour: the WebFountain substrate beyond the sentiment miner —
// the standard miner suite (aggregate statistics, duplicate detection,
// page ranking, geographic context, clustering), sentiment trending over
// time, and remote access to the platform through the Vinci service
// layer.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"webfountain"
	"webfountain/internal/corpus"
	"webfountain/internal/services"
	"webfountain/internal/vinci"
)

func main() {
	// Ingest a mixed petroleum corpus with dates and hyperlinks.
	generated := append(corpus.PetroleumWeb(41, 150), corpus.PetroleumNews(42, 80)...)
	platform := webfountain.NewPlatform(webfountain.PlatformConfig{})
	docs := make([]webfountain.Document, len(generated))
	for i := range generated {
		docs[i] = webfountain.Document{
			ID:     generated[i].ID,
			URL:    "http://petroleum.example/" + generated[i].ID,
			Source: generated[i].Source,
			Date:   generated[i].Date,
			Links:  generated[i].Links,
			Text:   generated[i].Text(),
		}
	}
	if _, err := platform.Ingest(docs); err != nil {
		log.Fatal(err)
	}

	// 1. Sentiment mining (needed by the trend miner below).
	miner, err := webfountain.NewSentimentMiner(webfountain.MinerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	facts, err := miner.Run(platform)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined %d documents -> %d sentiment facts\n\n", platform.NumEntities(), len(facts))

	// 2. The standard miner suite.
	rep, err := platform.RunAnalytics(webfountain.AnalyticsConfig{TopTerms: 8, Clusters: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d docs, %d tokens, vocabulary %d\n",
		rep.Stats.Documents, rep.Stats.Tokens, rep.Stats.Vocabulary)
	fmt.Printf("sources: %v\n", rep.Stats.BySource)
	fmt.Printf("regions: %v\n", rep.Regions)
	fmt.Printf("duplicate clusters: %d\n", len(rep.DuplicateClusters))
	if len(rep.TopRanked) > 0 {
		fmt.Printf("most linked page: %s\n", rep.TopRanked[0].ID)
	}
	for i, c := range rep.Clusters {
		fmt.Printf("cluster %d: %d docs, terms %v\n", i, c.Size, c.TopTerms)
	}

	// 3. Sentiment trending: how a company's reputation moved this year.
	fmt.Println("\nreputation trend for PetroNova:")
	series, momentum, ok := platform.SentimentTrend("PetroNova")
	if ok {
		for _, pt := range series {
			fmt.Printf("  %s  %2d+ %2d-\n", pt.Month, pt.Positive, pt.Negative)
		}
		fmt.Printf("  momentum: %+.2f\n", momentum)
	}

	// 4. Remote access: serve the mined facts over Vinci and query them
	// through the network path, as a remote application component
	// would. The serving tier holds them as one snapshot; its store
	// surface reads the platform's store and writes through the tier.
	tier := webfountain.NewServingTier(platform, miner, facts)
	reg := vinci.NewRegistry()
	services.RegisterSentiment(reg, tier)
	services.RegisterStore(reg, tier.Store())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := vinci.NewServer(reg)
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := vinci.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	sc := services.SentimentClient{C: conn}
	pos, neg, err := sc.Counts("GulfStar")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nremote query over Vinci (%s): GulfStar = %d+ %d-\n", ln.Addr(), pos, neg)
}
