// Cluster integration test at repository scope: a 3-shard
// tag-partitioned serving tier — three real HTTP shard daemons
// (partial-vocabulary snapshots, live compactors) behind a real HTTP
// gateway — driven concurrently with reads and writes, asserting the
// tentpole acceptance criterion: gateway answers are
// float-tolerance-equal to a single full node over the same dataset,
// before and after streaming ingest, and the gateway reports the
// cluster's minimum fold epoch throughout.
package viewstags_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"viewstags/internal/cluster"
	"viewstags/internal/ingest"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// clusterNode is one daemon of the tier: shard or standalone,
// compactor folding in the background.
type clusterNode struct {
	srv  *server.Server
	acc  *ingest.Accumulator
	comp *ingest.Compactor
	ts   *httptest.Server
	stop func()
}

// foldAll folds every event the nodes have acked into their serving
// snapshots before returning. Waiting for the accumulators' Pending to
// reach zero is not enough: Drain releases the count before the
// rebuilt snapshot is installed, so a read right after it can still see
// the previous one.
func foldAll(t *testing.T, nodes ...*clusterNode) {
	t.Helper()
	for _, n := range nodes {
		if _, err := n.comp.FoldNow(); err != nil {
			t.Fatal(err)
		}
	}
}

func startClusterNode(t *testing.T, ring *cluster.Ring, index, count int, foldEvery time.Duration) *clusterNode {
	t.Helper()
	res := testFixture(t)
	var owns func(string) bool
	if count > 1 {
		owns = func(name string) bool { return ring.Owner(name) == index }
	}
	snap, err := profilestore.BuildOwned(res.Analysis, owns)
	if err != nil {
		t.Fatal(err)
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.DefaultConfig()
	cfg.ShardIndex = index
	cfg.ShardCount = count
	cfg.RingSignature = ring.Signature()
	srv, err := server.New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := ingest.NewAccumulator(store, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableIngest(acc, foldEvery); err != nil {
		t.Fatal(err)
	}
	srv.SetReady()
	comp, err := ingest.NewCompactor(acc, foldEvery, func(d []profilestore.TagDelta, n int) error {
		return srv.ApplyDeltas(d, n, tagviews.WeightIDF)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); comp.Run(ctx) }()
	ts := httptest.NewServer(srv.Handler())
	n := &clusterNode{srv: srv, acc: acc, comp: comp, ts: ts, stop: func() {
		cancel()
		<-done // shutdown fold flushes the tail
		ts.Close()
	}}
	return n
}

// TestClusterGatewayEndToEnd stands up the full 3-shard tier plus a
// single-node reference, streams the same writes into both through
// their public APIs under concurrent read load, and asserts equality.
func TestClusterGatewayEndToEnd(t *testing.T) {
	res := testFixture(t)
	const shards = 3
	foldEvery := 15 * time.Millisecond

	ringOne, err := cluster.NewRing(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	single := startClusterNode(t, ringOne, 0, 1, foldEvery)
	defer single.stop()

	ring, err := cluster.NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*clusterNode, shards)
	targets := make([]string, shards)
	for i := range nodes {
		nodes[i] = startClusterNode(t, ring, i, shards, foldEvery)
		targets[i] = nodes[i].ts.URL
		defer nodes[i].stop()
	}
	gcfg := cluster.DefaultGatewayConfig()
	gcfg.HealthInterval = 20 * time.Millisecond
	// The tier under test is the shipping configuration: binary
	// internal wire (the default) with micro-batch coalescing on, so
	// the equivalence assertions below cover the fast path, not just
	// the JSON debug fallback.
	gcfg.Wire = cluster.WireBinary
	gcfg.CoalesceWindow = 250 * time.Microsecond
	g, err := cluster.NewGateway(gcfg, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	pollCtx, stopPoll := context.WithCancel(context.Background())
	defer stopPoll()
	go func() {
		tick := time.NewTicker(gcfg.HealthInterval)
		defer tick.Stop()
		for {
			select {
			case <-pollCtx.Done():
				return
			case <-tick.C:
				g.RefreshHealth(pollCtx)
			}
		}
	}()
	client := gw.Client()

	// Phase 1: static equivalence on the training vocabulary.
	sampleTags := [][]string{
		{"favela", "samba"},
		{"pop", "music"},
		res.Analysis.TagNames()[:25],
	}
	for _, tags := range sampleTags {
		assertSamePrediction(t, client, single.ts.URL, gw.URL, tags)
	}

	// Phase 2: concurrent stream. Writers push identical multi-tag
	// upload streams into both tiers through their public ingest
	// routes; readers hammer the gateway throughout.
	const rounds = 30
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			events := []server.IngestEvent{
				{Video: fmt.Sprintf("cl-%d", i), Tags: []string{"zz-clu-a", "zz-clu-b", "zz-clu-c"},
					Country: "JP", Views: 80, Upload: true},
				{Video: fmt.Sprintf("cl-%d", i), Tags: []string{"zz-clu-a", "zz-clu-b", "zz-clu-c"},
					Country: "US", Views: 20},
			}
			for _, url := range []string{gw.URL, single.ts.URL} {
				if code := postJSON(t, client, url+"/v1/ingest", server.IngestRequest{Events: events}, nil); code != http.StatusOK {
					t.Errorf("ingest round %d at %s: status %d", i, url, code)
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*3; i++ {
			var pr server.PredictResponse
			code := postJSON(t, client, gw.URL+"/v1/predict",
				server.PredictRequest{Tags: []string{"pop"}, Top: 3}, &pr)
			if code != http.StatusOK || pr.Result == nil || !pr.Result.Known {
				t.Errorf("mid-stream gateway read %d incoherent: code=%d %+v", i, code, pr.Result)
				return
			}
		}
	}()
	wg.Wait()

	// Let every shard fold the tail, then verify convergence.
	foldAll(t, append([]*clusterNode{single}, nodes...)...)

	// Phase 3: post-stream equivalence, including the ingested tags.
	for _, tags := range [][]string{
		{"zz-clu-a"},
		{"zz-clu-b", "pop"},
		{"zz-clu-c", "favela", "zz-clu-a"},
	} {
		assertSamePrediction(t, client, single.ts.URL, gw.URL, tags)
	}

	// The ingested geography round-trips exactly (80/20 JP/US).
	var pr server.PredictResponse
	if code := postJSON(t, client, gw.URL+"/v1/predict",
		server.PredictRequest{Tags: []string{"zz-clu-b"}, Top: 2}, &pr); code != http.StatusOK {
		t.Fatalf("post-stream predict: %d", code)
	}
	if pr.Result == nil || !pr.Result.Known {
		t.Fatalf("ingested tag unknown after folds: %+v", pr)
	}
	if top := pr.Result.Top[0]; top.Country != "JP" || math.Abs(top.Share-0.8) > 0.01 {
		t.Fatalf("ingested geography not reflected: top=%+v, want JP at 0.8", top)
	}

	// Every shard's corpus grew by exactly `rounds` uploads — including
	// shards owning none of the stream's tags (announcement routing).
	for i, n := range nodes {
		base := testFixture(t).Analysis.N()
		if got := n.srv.Store().Load().Records(); got != base+rounds {
			t.Fatalf("shard %d records %d, want %d", i, got, base+rounds)
		}
	}

	// The gateway health view converged: min epoch > 0 and every shard
	// healthy.
	g.RefreshHealth(context.Background())
	var health struct {
		Status  string `json:"status"`
		Epoch   uint64 `json:"epoch"`
		Healthy int    `json:"healthy"`
	}
	resp, err := client.Get(gw.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Healthy != shards {
		t.Fatalf("cluster health %+v", health)
	}
	if health.Epoch == 0 {
		t.Fatal("gateway reports epoch 0 after a streamed run — epoch tracking broken")
	}
}

// assertSamePrediction compares the two tiers' full distributions for
// one tag list across all weightings, within float tolerance.
func assertSamePrediction(t *testing.T, client *http.Client, singleURL, gatewayURL string, tags []string) {
	t.Helper()
	for _, weighting := range []string{"uniform", "by-views", "idf"} {
		var want, got server.PredictResponse
		req := server.PredictRequest{Tags: tags, Weighting: weighting, Top: 1 << 10}
		if code := postJSON(t, client, singleURL+"/v1/predict", req, &want); code != http.StatusOK {
			t.Fatalf("single-node predict: %d", code)
		}
		if code := postJSON(t, client, gatewayURL+"/v1/predict", req, &got); code != http.StatusOK {
			t.Fatalf("gateway predict: %d", code)
		}
		if want.Result == nil || got.Result == nil || got.Result.Known != want.Result.Known {
			t.Fatalf("w=%s %v: result mismatch: %+v vs %+v", weighting, tags, got.Result, want.Result)
		}
		wantS := map[string]float64{}
		for _, cs := range want.Result.Top {
			wantS[cs.Country] = cs.Share
		}
		gotS := map[string]float64{}
		for _, cs := range got.Result.Top {
			gotS[cs.Country] = cs.Share
		}
		if len(wantS) != len(gotS) {
			t.Fatalf("w=%s %v: %d countries vs %d", weighting, tags, len(gotS), len(wantS))
		}
		for country, share := range wantS {
			if math.Abs(gotS[country]-share) > 1e-9 {
				t.Fatalf("w=%s %v %s: gateway %v, single-node %v", weighting, tags, country, gotS[country], share)
			}
		}
	}
}
