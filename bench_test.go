// Benchmark harness: one bench per paper artifact (T1, F1–F3) and per
// derived experiment (E4–E6), plus the ablations DESIGN.md calls out.
// Run with:
//
//	go test -bench=. -benchmem
//
// The benches report the experiment's headline quantity through
// b.ReportMetric (e.g. drop-rate, JS divergence, hit ratio), so a bench
// run doubles as a reproduction record; EXPERIMENTS.md snapshots them.
package viewstags_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/cluster"
	"viewstags/internal/dist"
	"viewstags/internal/geo"
	"viewstags/internal/geocache"
	"viewstags/internal/ingest"
	"viewstags/internal/mapchart"
	"viewstags/internal/pipeline"
	"viewstags/internal/placement"
	"viewstags/internal/profilestore"
	"viewstags/internal/reconstruct"
	"viewstags/internal/report"
	"viewstags/internal/server"
	"viewstags/internal/stats"
	"viewstags/internal/synth"
	"viewstags/internal/tagviews"
)

// benchScale is the shared fixture size: large enough for stable
// statistics, small enough that the full bench suite runs in minutes.
const benchScale = 12000

var (
	benchOnce sync.Once
	benchRes  *pipeline.Result
	benchErr  error
)

func benchFixture(b *testing.B) *pipeline.Result {
	b.Helper()
	benchOnce.Do(func() {
		benchRes, benchErr = pipeline.FromSynthetic(benchScale, 20110301, alexa.DefaultConfig())
	})
	if benchErr != nil {
		b.Fatalf("fixture: %v", benchErr)
	}
	return benchRes
}

// BenchmarkT1DatasetPipeline regenerates the §2 dataset table: generate
// → extract records → filter → analysis build, the whole of
// pipeline.FromSynthetic and so the catalog half of a shard daemon's
// boot. Reported metric: drop-rate percent (paper: 35.0%).
func BenchmarkT1DatasetPipeline(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		res, err := pipeline.FromSynthetic(4000, uint64(i)+1, alexa.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		drop = res.Clean.Report.DropRate()
	}
	b.ReportMetric(100*drop, "droprate-%")
}

// BenchmarkF1TopVideoMap renders Fig. 1: the most-viewed video's
// popularity map from its quantized pop vector. Reported metric: number
// of countries at the 61 cap (paper: several, e.g. US and SG).
func BenchmarkF1TopVideoMap(b *testing.B) {
	res := benchFixture(b)
	an := res.Analysis
	best, bestViews := -1, int64(-1)
	for i := 0; i < an.N(); i++ {
		if v := an.Record(i).TotalViews; v > bestViews {
			best, bestViews = i, v
		}
	}
	pop, err := an.Record(best).PopVector(res.World)
	if err != nil {
		b.Fatal(err)
	}
	intens := make([]float64, len(pop))
	capped := 0
	for c, x := range pop {
		intens[c] = float64(x)
		if x == mapchart.MaxIntensity {
			capped++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.WorldMap(res.World, intens, "F1"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(capped), "countries-at-cap")
}

// BenchmarkF2GlobalTagMap regenerates Fig. 2: the tag 'pop' against the
// world traffic distribution. Reported metric: JS divergence to traffic
// (paper shape: small).
func BenchmarkF2GlobalTagMap(b *testing.B) {
	res := benchFixture(b)
	var js float64
	for i := 0; i < b.N; i++ {
		p, ok := res.Analysis.TagProfile("pop")
		if !ok {
			b.Fatal("tag 'pop' missing")
		}
		if _, err := report.WorldMap(res.World, p.Views, "F2"); err != nil {
			b.Fatal(err)
		}
		js = p.JSToTraffic
	}
	b.ReportMetric(js, "JS-to-traffic")
}

// BenchmarkF3LocalTagMap regenerates Fig. 3: the tag 'favela',
// concentrated in Brazil. Reported metric: Brazil's share of the tag's
// views (paper shape: dominant).
func BenchmarkF3LocalTagMap(b *testing.B) {
	res := benchFixture(b)
	var brShare float64
	br := res.World.MustByCode("BR")
	for i := 0; i < b.N; i++ {
		p, ok := res.Analysis.TagProfile("favela")
		if !ok {
			b.Fatal("tag 'favela' missing")
		}
		if _, err := report.WorldMap(res.World, p.Views, "F3"); err != nil {
			b.Fatal(err)
		}
		brShare = dist.Normalize(p.Views)[br]
	}
	b.ReportMetric(100*brShare, "BR-share-%")
}

// BenchmarkE4ReconstructionSweep scores Eq. 1–2 reconstruction against
// ground truth across Alexa noise levels. Reported metric: mean JS at
// the highest noise level of the sweep.
func BenchmarkE4ReconstructionSweep(b *testing.B) {
	res := benchFixture(b)
	cat := res.Catalog
	var lastJS float64
	for i := 0; i < b.N; i++ {
		for _, sigma := range []float64{0, 0.1, 0.2, 0.4} {
			pyt, err := alexa.Estimate(cat.World, alexa.Config{NoiseSigma: sigma, Seed: 2011})
			if err != nil {
				b.Fatal(err)
			}
			var sum float64
			n := 0
			for j := range cat.Videos {
				v := &cat.Videos[j]
				if v.PopState != synth.PopStateOK || v.TotalViews < 1000 {
					continue
				}
				rec, err := reconstruct.Views(v.PopVector, pyt, v.TotalViews)
				if err != nil {
					continue
				}
				q, err := reconstruct.Score(rec, v.TrueViews)
				if err != nil {
					b.Fatal(err)
				}
				sum += q.JS
				n++
			}
			lastJS = sum / float64(n)
		}
	}
	b.ReportMetric(lastJS, "meanJS-sigma0.4")
}

// BenchmarkE5TagPrediction evaluates the paper's conjecture: hold-out
// prediction of view fields from tags vs the baselines. Reported
// metrics: the predictor's mean JS and its margin over the best
// baseline.
func BenchmarkE5TagPrediction(b *testing.B) {
	res := benchFixture(b)
	var r *tagviews.EvalResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = tagviews.Evaluate(res.World, res.Clean.Records, res.Clean.Pop, res.Pyt, tagviews.DefaultEvalConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.TagJS, "JS-tags")
	best := r.PriorJS
	if r.UploadJS < best {
		best = r.UploadJS
	}
	b.ReportMetric(best-r.TagJS, "JS-margin-vs-best-baseline")
	b.ReportMetric(r.TagTop1, "top1-accuracy")
}

// benchPredictions computes tag predictions for E6 once.
var (
	predOnce sync.Once
	predVals [][]float64
	predErr  error
)

func benchPredictions(b *testing.B) [][]float64 {
	b.Helper()
	res := benchFixture(b)
	predOnce.Do(func() {
		pred, err := tagviews.NewPredictor(res.Analysis, tagviews.WeightIDF)
		if err != nil {
			predErr = err
			return
		}
		cat := res.Catalog
		predVals = make([][]float64, len(cat.Videos))
		for i := range cat.Videos {
			names := cat.Videos[i].TagNames(cat.Vocab)
			if len(names) == 0 {
				continue
			}
			if p, ok := pred.Predict(names); ok {
				predVals[i] = p
			}
		}
	})
	if predErr != nil {
		b.Fatal(predErr)
	}
	return predVals
}

// BenchmarkE6GeoCache replays the request stream against each policy at
// 64 slots/country. Reported metric per sub-bench: hit ratio.
func BenchmarkE6GeoCache(b *testing.B) {
	res := benchFixture(b)
	preds := benchPredictions(b)
	cfg := geocache.DefaultConfig()
	cfg.Requests = 100_000
	sim, err := geocache.NewSimulator(res.Catalog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.SetPredictions(preds); err != nil {
		b.Fatal(err)
	}
	for _, p := range []geocache.PolicyKind{
		geocache.PolicyLRU, geocache.PolicyLFU, geocache.PolicyPopPush,
		geocache.PolicyTagPush, geocache.PolicyHybrid, geocache.PolicyOracle,
	} {
		b.Run(p.String(), func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(p, 64)
				if err != nil {
					b.Fatal(err)
				}
				hit = r.HitRatio
			}
			b.ReportMetric(hit, "hit-ratio")
		})
	}
}

// BenchmarkAblationWeighting compares the predictor's three tag
// weighting schemes (DESIGN.md §5).
func BenchmarkAblationWeighting(b *testing.B) {
	res := benchFixture(b)
	for _, w := range []tagviews.Weighting{tagviews.WeightUniform, tagviews.WeightByViews, tagviews.WeightIDF} {
		b.Run(w.String(), func(b *testing.B) {
			cfg := tagviews.DefaultEvalConfig()
			cfg.Weighting = w
			var r *tagviews.EvalResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = tagviews.Evaluate(res.World, res.Clean.Records, res.Clean.Pop, res.Pyt, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.TagJS, "JS-tags")
		})
	}
}

// BenchmarkAblationPushBudget sweeps the tag-push policy's per-country
// capacity (DESIGN.md §5).
func BenchmarkAblationPushBudget(b *testing.B) {
	res := benchFixture(b)
	preds := benchPredictions(b)
	cfg := geocache.DefaultConfig()
	cfg.Requests = 60_000
	sim, err := geocache.NewSimulator(res.Catalog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.SetPredictions(preds); err != nil {
		b.Fatal(err)
	}
	for _, slots := range []int{16, 64, 256} {
		b.Run(benchName("slots", slots), func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(geocache.PolicyTagPush, slots)
				if err != nil {
					b.Fatal(err)
				}
				hit = r.HitRatio
			}
			b.ReportMetric(hit, "hit-ratio")
		})
	}
}

// BenchmarkAblationQuantization compares reconstruction loss under the
// chart API's two encodings: simple (62 levels, what YouTube used) vs
// extended (4096 levels) — isolating pure quantization error
// (DESIGN.md §5).
func BenchmarkAblationQuantization(b *testing.B) {
	res := benchFixture(b)
	cat := res.Catalog
	pyt, err := alexa.Estimate(cat.World, alexa.Config{NoiseSigma: 0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, levels := range []int{mapchart.MaxIntensity, mapchart.MaxExtended} {
		b.Run(benchName("levels", levels), func(b *testing.B) {
			var meanJS float64
			for i := 0; i < b.N; i++ {
				var sum float64
				n := 0
				views := make([]float64, cat.World.N())
				for j := range cat.Videos {
					v := &cat.Videos[j]
					if v.PopState != synth.PopStateOK || v.TotalViews < 1000 {
						continue
					}
					for c, x := range v.TrueViews {
						views[c] = float64(x)
					}
					intens, err := mapchart.Intensity(views, cat.World.Traffic())
					if err != nil {
						b.Fatal(err)
					}
					pop := mapchart.QuantizeTo(intens, levels)
					rec, err := reconstruct.Views(pop, pyt, v.TotalViews)
					if err != nil {
						continue
					}
					q, err := reconstruct.Score(rec, v.TrueViews)
					if err != nil {
						b.Fatal(err)
					}
					sum += q.JS
					n++
				}
				meanJS = sum / float64(n)
			}
			b.ReportMetric(meanJS, "meanJS")
		})
	}
}

// BenchmarkTagAggregation measures the Eq. 3 aggregation core in
// isolation (records/sec of the Build step).
func BenchmarkTagAggregation(b *testing.B) {
	res := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tagviews.Build(res.World, res.Clean.Records, res.Clean.Pop, res.Pyt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Clean.Records)), "records/op")
}

// BenchmarkReconstructionThroughput measures single-video Eq. 1–2
// inversion cost.
func BenchmarkReconstructionThroughput(b *testing.B) {
	res := benchFixture(b)
	pop := res.Clean.Pop
	recs := res.Clean.Records
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(recs)
		if _, err := reconstruct.Views(pop[j], res.Pyt, recs[j].TotalViews); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapChartRoundTrip measures chart URL encode+parse (the
// crawler's per-video scrape cost).
func BenchmarkMapChartRoundTrip(b *testing.B) {
	codes := []string{"US", "GB", "FR", "DE", "BR", "JP", "KR", "IN", "RU", "MX"}
	vals := []int{61, 40, 35, 30, 25, 20, 15, 10, 5, 1}
	chart := &mapchart.Chart{Codes: codes, Intensities: vals}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := chart.BuildURL()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mapchart.ParseURL(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatsSubstrate exercises the Gini/entropy path over the tag
// corpus (used by the characterization reports).
func BenchmarkStatsSubstrate(b *testing.B) {
	res := benchFixture(b)
	totals := make([]float64, 0, res.Analysis.NumTags())
	for _, p := range res.Analysis.TopTags(res.Analysis.NumTags()) {
		totals = append(totals, p.TotalViews)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stats.Gini(totals)
		_ = stats.Entropy(totals)
	}
}

func benchName(prefix string, n int) string {
	return prefix + "-" + strconv.Itoa(n)
}

// BenchmarkAblationTopicDrift sweeps the generator's topic-drift rate —
// the fraction of videos whose topic anchors away from the uploader's
// country. Drift is what makes tags a strictly better marker than
// uploader location; the reported metric is the E5 JS margin of the tag
// predictor over the upload-country baseline at each drift level.
func BenchmarkAblationTopicDrift(b *testing.B) {
	for _, drift := range []float64{0, 0.15, 0.30, 0.60} {
		b.Run("drift-"+strconv.FormatFloat(drift, 'f', 2, 64), func(b *testing.B) {
			var margin float64
			for i := 0; i < b.N; i++ {
				cfg := synth.DefaultConfig(5000)
				cfg.TopicDrift = drift
				res, err := pipeline.FromSyntheticConfig(cfg, alexa.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				r, err := tagviews.Evaluate(res.World, res.Clean.Records, res.Clean.Pop, res.Pyt, tagviews.DefaultEvalConfig())
				if err != nil {
					b.Fatal(err)
				}
				margin = r.UploadJS - r.TagJS
			}
			b.ReportMetric(margin, "JS-margin-over-upload")
		})
	}
}

// BenchmarkAblationTemporalLocality sweeps request-stream burstiness:
// as temporal locality grows, reactive LRU closes the gap to tag-push
// (the EXPERIMENTS.md validity note, quantified). Reported metric:
// tag-push hit ratio minus LRU hit ratio.
func BenchmarkAblationTemporalLocality(b *testing.B) {
	res := benchFixture(b)
	preds := benchPredictions(b)
	for _, locality := range []float64{0, 0.25, 0.5} {
		b.Run("locality-"+strconv.FormatFloat(locality, 'f', 2, 64), func(b *testing.B) {
			var gap float64
			for i := 0; i < b.N; i++ {
				cfg := geocache.DefaultConfig()
				cfg.Requests = 60_000
				cfg.TemporalLocality = locality
				sim, err := geocache.NewSimulator(res.Catalog, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.SetPredictions(preds); err != nil {
					b.Fatal(err)
				}
				tp, err := sim.Run(geocache.PolicyTagPush, 64)
				if err != nil {
					b.Fatal(err)
				}
				lru, err := sim.Run(geocache.PolicyLRU, 64)
				if err != nil {
					b.Fatal(err)
				}
				gap = tp.HitRatio - lru.HitRatio
			}
			b.ReportMetric(gap, "tagpush-minus-lru")
		})
	}
}

// BenchmarkE7Placement evaluates replica placement (the storage-layer
// extension the paper's intro motivates): mean viewer-to-replica
// distance per strategy at 3 replicas/video.
func BenchmarkE7Placement(b *testing.B) {
	res := benchFixture(b)
	preds := benchPredictions(b)
	ev, err := placement.NewEvaluator(res.Catalog, placement.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := ev.SetPredictions(preds); err != nil {
		b.Fatal(err)
	}
	for _, s := range []placement.Strategy{
		placement.StrategyHome, placement.StrategyPopular,
		placement.StrategyPredicted, placement.StrategyOracle,
	} {
		b.Run(s.String(), func(b *testing.B) {
			var r placement.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = ev.Evaluate(s)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.MeanKm, "mean-km")
			b.ReportMetric(r.LocalFraction, "local-fraction")
		})
	}
}

// BenchmarkAnalysisBuild measures the Eq. 1–3 analysis build over the
// fixture's filtered records: reconstruction on every core, then the
// sequential tag aggregation.
func BenchmarkAnalysisBuild(b *testing.B) {
	res := benchFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tagviews.Build(res.World, res.Clean.Records, res.Clean.Pop, res.Pyt); err != nil {
			b.Fatal(err)
		}
	}
}

// serveFixture builds the HTTP serving stack (profile store + fully
// middleware-wrapped handler) over the shared bench fixture once.
var (
	serveOnce sync.Once
	serveSrv  *server.Server
	serveErr  error
)

func serveFixture(b *testing.B) *server.Server {
	b.Helper()
	res := benchFixture(b)
	serveOnce.Do(func() {
		snap, err := profilestore.Build(res.Analysis)
		if err != nil {
			serveErr = err
			return
		}
		store, err := profilestore.NewStore(snap)
		if err != nil {
			serveErr = err
			return
		}
		serveSrv, serveErr = server.New(server.DefaultConfig(), store)
	})
	if serveErr != nil {
		b.Fatal(serveErr)
	}
	return serveSrv
}

// BenchmarkServePredict measures /v1/predict through the full handler
// stack (middleware, JSON decode, prediction, JSON encode): one video
// per request vs a 32-video batch. The reported predictions/sec metric
// is the acceptance quantity — batching amortizes the per-request HTTP
// and JSON overhead, so batch-32 must beat single.
func BenchmarkServePredict(b *testing.B) {
	srv := serveFixture(b)
	res := benchFixture(b)
	cat := res.Catalog
	var tagSets [][]string
	for i := range cat.Videos {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			tagSets = append(tagSets, names)
		}
	}
	makeBody := func(batch, seq int) []byte {
		req := server.PredictRequest{Weighting: "idf", Top: 3}
		if batch == 1 {
			req.Tags = tagSets[seq%len(tagSets)]
		} else {
			req.Batch = make([]server.PredictItem, batch)
			for j := range req.Batch {
				req.Batch[j] = server.PredictItem{Tags: tagSets[(seq*batch+j)%len(tagSets)]}
			}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	for _, batch := range []int{1, 32} {
		name := "single"
		if batch > 1 {
			name = benchName("batch", batch)
		}
		b.Run(name, func(b *testing.B) {
			h := srv.Handler()
			// Pre-marshal a rotating set of request bodies so only the
			// server side (ServeHTTP) is timed, not the client encode.
			bodies := make([][]byte, 256)
			for i := range bodies {
				bodies[i] = makeBody(batch, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[i%len(bodies)]))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
			preds := float64(b.N * batch)
			b.ReportMetric(preds/b.Elapsed().Seconds(), "preds/sec")
		})
	}
}

// BenchmarkIngestFold measures one full epoch of the streaming write
// path — accumulate a batch of view events, drain the sharded deltas,
// Rebuild the snapshot copy-on-write, swap it in — at two touch widths:
// a hot head of 100 tags and the whole vocabulary. The copy-on-write
// contract says cost scales with touched tags plus O(tags) bookkeeping,
// so the two runs bound a production fold's latency from both sides.
func BenchmarkIngestFold(b *testing.B) {
	res := benchFixture(b)
	base, err := profilestore.Build(res.Analysis)
	if err != nil {
		b.Fatal(err)
	}
	names := res.Analysis.TagNames()
	nC := res.World.N()
	for _, touch := range []int{100, len(names)} {
		b.Run(benchName("touch", touch), func(b *testing.B) {
			store, err := profilestore.NewStore(base)
			if err != nil {
				b.Fatal(err)
			}
			acc, err := ingest.NewAccumulator(store, 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			events := make([]ingest.Event, touch)
			for i := range events {
				events[i] = ingest.Event{
					Video:   "bench-" + strconv.Itoa(i),
					Tags:    []string{names[i%len(names)]},
					Country: geo.CountryID(i % nC),
					Views:   1,
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := acc.Add(events); err != nil {
					b.Fatal(err)
				}
				deltas, n, _, _ := acc.Drain()
				next, err := profilestore.Rebuild(store.Load(), deltas, n)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := store.Swap(next); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(touch)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkClusterGatewayPredict measures /v1/predict through the
// cluster edge: a gateway scatter-gathering three in-process shard
// daemons over real loopback HTTP, alongside BenchmarkServePredict's
// single-node numbers (same request shapes, same preds/sec metric).
// The parallel driver reflects the tier's design point — concurrent
// clients amortize the per-request fan-out latency, so aggregate
// throughput tracks shard capacity rather than one request's 3-way
// round trip. CI uploads both benches as the gateway-vs-single-node
// throughput artifact.
func BenchmarkClusterGatewayPredict(b *testing.B) {
	res := benchFixture(b)
	const shards = 3
	ring, err := cluster.NewRing(shards, 0)
	if err != nil {
		b.Fatal(err)
	}
	targets := make([]string, shards)
	for i := 0; i < shards; i++ {
		i := i
		snap, err := profilestore.BuildOwned(res.Analysis, func(name string) bool { return ring.Owner(name) == i })
		if err != nil {
			b.Fatal(err)
		}
		store, err := profilestore.NewStore(snap)
		if err != nil {
			b.Fatal(err)
		}
		cfg := server.DefaultConfig()
		cfg.ShardIndex = i
		cfg.ShardCount = shards
		cfg.RingSignature = ring.Signature()
		srv, err := server.New(cfg, store)
		if err != nil {
			b.Fatal(err)
		}
		// No recovery phase in a bench shard: mark ready immediately or
		// Sync (which refuses unready shards since the durable tier)
		// never succeeds.
		srv.SetReady()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		targets[i] = ts.URL
	}
	cat := res.Catalog
	var tagSets [][]string
	for i := range cat.Videos {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			tagSets = append(tagSets, names)
		}
	}
	makeBody := func(batch, seq int) []byte {
		req := server.PredictRequest{Weighting: "idf", Top: 3}
		if batch == 1 {
			req.Tags = tagSets[seq%len(tagSets)]
		} else {
			req.Batch = make([]server.PredictItem, batch)
			for j := range req.Batch {
				req.Batch[j] = server.PredictItem{Tags: tagSets[(seq*batch+j)%len(tagSets)]}
			}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	// One gateway per internal-wire configuration over the same shards:
	// the json/binary pairs isolate the codec's contribution, and the
	// coalesce variant adds the micro-batching window — singles are
	// where it differentiates most (each otherwise pays its own
	// per-shard round trip), but batches splice into the same shared
	// fan-outs, so both shapes run.
	variants := []struct {
		name   string
		wire   cluster.WireKind
		window time.Duration
		shapes []int
	}{
		{"wire-json", cluster.WireJSON, 0, []int{1, 32}},
		{"wire-binary", cluster.WireBinary, 0, []int{1, 32}},
		{"wire-binary-coalesce", cluster.WireBinary, 500 * time.Microsecond, []int{1, 4, 32}},
	}
	for _, v := range variants {
		cfg := cluster.DefaultGatewayConfig()
		cfg.Wire = v.wire
		cfg.CoalesceWindow = v.window
		g, err := cluster.NewGateway(cfg, targets)
		if err != nil {
			b.Fatal(err)
		}
		if err := g.Sync(context.Background()); err != nil {
			b.Fatal(err)
		}
		for _, batch := range v.shapes {
			name := v.name + "/single"
			if batch > 1 {
				name = v.name + "/" + benchName("batch", batch)
			}
			b.Run(name, func(b *testing.B) {
				h := g.Handler()
				bodies := make([][]byte, 256)
				for i := range bodies {
					bodies[i] = makeBody(batch, i)
				}
				var seq atomic.Int64
				// 32 closed-loop drivers regardless of GOMAXPROCS: the
				// tier's design point is many concurrent clients (the
				// coalescer batches across them), and on the 1-vCPU CI
				// runner RunParallel would otherwise drive one worker.
				b.SetParallelism(max(1, 32/runtime.GOMAXPROCS(0)))
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						i := int(seq.Add(1))
						req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[i%len(bodies)]))
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, req)
						if rec.Code != http.StatusOK {
							b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
						}
					}
				})
				preds := float64(b.N * batch)
				b.ReportMetric(preds/b.Elapsed().Seconds(), "preds/sec")
			})
		}
	}
}

// BenchmarkInternalCodec measures the gateway↔shard codec in isolation
// at the fan-out's realistic shape: a 32-item batch of catalog tag
// lists and world-sized float64 reply vectors. The json twins encode
// and decode the same payloads through the InternalPredict wire
// structs — the before/after pair behind the binary wire's throughput
// claim in EXPERIMENTS.md.
func BenchmarkInternalCodec(b *testing.B) {
	res := benchFixture(b)
	nC := res.World.N()
	cat := res.Catalog
	var items [][]string
	for i := range cat.Videos {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			items = append(items, names)
		}
		if len(items) == 32 {
			break
		}
	}
	wsums := make([]float64, len(items))
	vec := make([]float64, nC)
	for c := range vec {
		vec[c] = 1 / float64(c+1)
	}
	for i := range wsums {
		wsums[i] = float64(i%7) + 0.5
	}

	b.Run("request-encode", func(b *testing.B) {
		buf := server.AppendPredictRequest(nil, items, tagviews.WeightIDF, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = server.AppendPredictRequest(buf[:0], items, tagviews.WeightIDF, false)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("request-decode", func(b *testing.B) {
		frame := server.AppendPredictRequest(nil, items, tagviews.WeightIDF, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := server.DecodePredictRequest(frame); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(frame)))
	})

	encodeResp := func(enc *server.PredictWireEncoder) []byte {
		enc.Begin(tagviews.WeightIDF, 10000, 3, nC, len(items), false)
		for i := range items {
			enc.Item(wsums[i], vec)
		}
		return enc.Finish()
	}
	b.Run("response-encode", func(b *testing.B) {
		var enc server.PredictWireEncoder
		frame := encodeResp(&enc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encodeResp(&enc)
		}
		b.SetBytes(int64(len(frame)))
	})
	b.Run("response-decode", func(b *testing.B) {
		var enc server.PredictWireEncoder
		frame := encodeResp(&enc)
		var pp server.PredictPartials
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := server.DecodePredictResponse(frame, &pp, 64, 1<<12); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(frame)))
	})

	// The JSON twins: what each response direction cost before the
	// binary wire (the request side is small either way; the response's
	// world-sized float64 vectors are where JSON text rendering burns).
	jsonResp := server.InternalPredictResponse{Partials: make([]server.PartialMixture, len(items))}
	for i := range jsonResp.Partials {
		jsonResp.Partials[i] = server.PartialMixture{WeightSum: wsums[i], Sum: vec}
	}
	jsonFrame, err := json.Marshal(&jsonResp)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("response-encode-json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&jsonResp); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(jsonFrame)))
	})
	b.Run("response-decode-json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out server.InternalPredictResponse
			if err := json.Unmarshal(jsonFrame, &out); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(jsonFrame)))
	})
}
