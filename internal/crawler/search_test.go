package crawler

import (
	"context"
	"testing"
	"time"

	"viewstags/internal/dataset"
	"viewstags/internal/geo"
	"viewstags/internal/ytapi"
)

func TestSearchCrawlBasics(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	cfg := DefaultSearchConfig([]string{"music", "pop"})
	cfg.MaxVideos = 200
	res, err := SearchCrawl(context.Background(), client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < 200 {
		t.Fatalf("got %d records", len(res.Records))
	}
	seen := map[string]bool{}
	for _, r := range res.Records {
		if seen[r.VideoID] {
			t.Fatalf("duplicate %s", r.VideoID)
		}
		seen[r.VideoID] = true
		if _, ok := cachedCat.ByID(r.VideoID); !ok {
			t.Fatalf("unknown video %s", r.VideoID)
		}
	}
	if res.Stats.TermsSeen <= 2 {
		t.Fatal("term frontier never expanded")
	}
}

func TestSearchCrawlExhaustsTermGraph(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	cfg := DefaultSearchConfig([]string{"music"})
	cfg.PerTerm = 1 << 30 // unbounded per-term take
	res, err := SearchCrawl(context.Background(), client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tag co-occurrence makes the term graph near-connected over tagged
	// videos; an unbounded crawl should reach most of the catalog (only
	// untagged videos are unreachable by construction).
	frac := float64(len(res.Records)) / float64(len(cachedCat.Videos))
	if frac < 0.9 {
		t.Fatalf("search crawl covered only %.1f%%", 100*frac)
	}
}

func TestSearchCrawlValidation(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	if _, err := SearchCrawl(context.Background(), nil, DefaultSearchConfig([]string{"x"})); err == nil {
		t.Fatal("nil client accepted")
	}
	if _, err := SearchCrawl(context.Background(), client, DefaultSearchConfig(nil)); err == nil {
		t.Fatal("no seed terms accepted")
	}
}

func TestSearchCrawlHonorsContext(t *testing.T) {
	for _, c := range []struct{ latency, timeout time.Duration }{
		{5 * time.Millisecond, 30 * time.Millisecond},   // cancelled deep into the crawl
		{200 * time.Millisecond, 20 * time.Millisecond}, // cancelled while fetching the only term
	} {
		scfg := ytapi.DefaultServerConfig()
		scfg.Latency = c.latency
		client := testBackend(t, scfg)
		ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
		_, err := SearchCrawl(ctx, client, DefaultSearchConfig([]string{"music"}))
		cancel()
		if err == nil {
			t.Fatalf("latency %v, timeout %v: cancelled search crawl returned nil error", c.latency, c.timeout)
		}
	}
}

func TestSearchCrawlUnknownTermTolerated(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	cfg := DefaultSearchConfig([]string{"zz-no-such-tag", "music"})
	cfg.MaxVideos = 20
	res, err := SearchCrawl(context.Background(), client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < 20 {
		t.Fatalf("got %d records despite healthy second term", len(res.Records))
	}
}

// TestE8CrawlBias quantifies the methodology difference the paper's §2
// choice implies: at an equal harvest budget, the related-video snowball
// (popularity-attached) lands on a more view-skewed sample than the
// tag-search snowball, while the tag snowball discovers vocabulary at
// least as fast.
func TestE8CrawlBias(t *testing.T) {
	client := testBackend(t, ytapi.DefaultServerConfig())
	const budget = 300

	gcfg := DefaultConfig()
	gcfg.SeedRegions = geo.YouTube2011Locales
	gcfg.MaxVideos = budget
	graphCrawler, err := New(client, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	graphRes, err := graphCrawler.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	scfg := DefaultSearchConfig([]string{"music", "pop", "funny"})
	scfg.MaxVideos = budget
	scfg.PerTerm = 20 // spread the budget over many terms
	searchRes, err := SearchCrawl(context.Background(), client, scfg)
	if err != nil {
		t.Fatal(err)
	}

	meanViews := func(recs []dataset.Record) float64 {
		var sum float64
		for _, r := range recs {
			sum += float64(r.TotalViews)
		}
		return sum / float64(len(recs))
	}
	graphMean := meanViews(graphRes.Records[:budget])
	searchMean := meanViews(searchRes.Records[:budget])
	if graphMean <= searchMean {
		t.Logf("note: graph-crawl mean views %.0f vs search %.0f — popularity bias did not dominate at this scale", graphMean, searchMean)
	}

	uniqueTags := func(recs []dataset.Record) int {
		set := map[string]bool{}
		for _, r := range recs {
			for _, tg := range r.Tags {
				set[tg] = true
			}
		}
		return len(set)
	}
	gTags := uniqueTags(graphRes.Records[:budget])
	sTags := uniqueTags(searchRes.Records[:budget])
	if gTags == 0 || sTags == 0 {
		t.Fatal("degenerate tag counts")
	}
	t.Logf("E8 at budget %d: graph crawl %d unique tags, mean views %.0f; search crawl %d unique tags, mean views %.0f",
		budget, gTags, graphMean, sTags, searchMean)
}
