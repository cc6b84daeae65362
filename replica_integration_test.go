// Replica failover integration test at repository scope: a 3-shard
// R=2 tier — every tag's slice held by two real HTTP daemons — behind
// a real gateway, with one replica cut mid-run. The replication
// contract under test: reads fail over to the surviving copy with no
// client-visible error and stay float-tolerance-equal to a single
// full node; writes keep landing on the live owners while a replica
// is down; and the revived replica is rebuilt from its peers exactly
// (proven by cutting the OTHER copy afterwards and re-asserting
// equality, so the caught-up replica is the one answering).
package viewstags_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"viewstags/internal/cluster"
	"viewstags/internal/ingest"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// startReplicaNode is startClusterNode for a replicated tier: the node
// holds every slice the R-way ring assigns it and has the
// /internal/transfer surface wired (topology hooks + synchronous fold),
// so gateway catch-up and resharding work against it.
func startReplicaNode(t *testing.T, index, count, replicas int, foldEvery time.Duration) *clusterNode {
	t.Helper()
	res := testFixture(t)
	ring, err := cluster.NewRingReplicas(count, 0, replicas)
	if err != nil {
		t.Fatal(err)
	}
	var owns func(string) bool
	if count > 1 {
		owns = func(name string) bool { return ring.Owns(name, index) }
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
	cfg.Replicas = replicas
	cfg.RingSignature = ring.Signature()
	cfg.Topology = ring
	cfg.MakeTopology = func(shards, replicas int) (server.ShardTopology, error) {
		r, err := cluster.NewRingReplicas(shards, 0, replicas)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
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
	srv.SetFoldHook(comp.FoldNow)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); comp.Run(ctx) }()
	ts := httptest.NewServer(srv.Handler())
	return &clusterNode{srv: srv, acc: acc, comp: comp, ts: ts, stop: func() {
		cancel()
		<-done
		ts.Close()
	}}
}

// flakyShard fronts one node with a proxy whose failure mode is a cut
// connection — the transport error a crashed daemon produces — while
// the URL the gateway routes to stays stable across "crashes", so the
// same shard can die and come back.
type flakyShard struct {
	blocked atomic.Bool
	ts      *httptest.Server
}

func newFlakyShard(t *testing.T, backend string) *flakyShard {
	t.Helper()
	target, err := url.Parse(backend)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	f := &flakyShard{}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.blocked.Load() {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("proxy response writer not hijackable")
				return
			}
			conn, _, _ := hj.Hijack()
			_ = conn.Close()
			return
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(f.ts.Close)
	return f
}

// promCounter scrapes one counter from the gateway's /metrics text.
func promCounter(t *testing.T, client *http.Client, base, name string) float64 {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("unparsable %s value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("counter %s not in exposition", name)
	return 0
}

// TestReplicaFailoverEndToEnd drives the kill → failover → sloppy
// writes → catch-up → exactness sequence described in the package
// comment.
func TestReplicaFailoverEndToEnd(t *testing.T) {
	res := testFixture(t)
	const shards, replicas = 3, 2
	foldEvery := 15 * time.Millisecond

	ringOne, err := cluster.NewRing(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	single := startClusterNode(t, ringOne, 0, 1, foldEvery)
	defer single.stop()

	nodes := make([]*clusterNode, shards)
	proxies := make([]*flakyShard, shards)
	targets := make([]string, shards)
	for i := range nodes {
		nodes[i] = startReplicaNode(t, i, shards, replicas, foldEvery)
		defer nodes[i].stop()
		proxies[i] = newFlakyShard(t, nodes[i].ts.URL)
		targets[i] = proxies[i].ts.URL
	}
	gcfg := cluster.DefaultGatewayConfig()
	gcfg.Replicas = replicas
	gcfg.FailThreshold = 2
	gcfg.Wire = cluster.WireBinary
	g, err := cluster.NewGateway(gcfg, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	client := gw.Client()
	ctx := context.Background()

	readyCode := func() int {
		resp, err := client.Get(gw.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		return resp.StatusCode
	}

	// Healthy tier: replicated answers match the single node.
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"favela", "samba"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, res.Analysis.TagNames()[:25])

	// Cut shard 1 with the gateway still believing it healthy: every
	// read that routes there must fail over to the other replica with
	// no client-visible error.
	proxies[1].blocked.Store(true)
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"pop", "music"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, res.Analysis.TagNames()[:40])
	if v := promCounter(t, client, gw.URL, "viewstags_replica_failover_total"); v <= 0 {
		t.Fatalf("failover counter = %v after reads against a cut replica, want > 0", v)
	}

	// Health detection marks it down; with R=2 every slice is still
	// covered, so the cluster stays READY — the tentpole's availability
	// claim.
	g.RefreshHealth(ctx)
	g.RefreshHealth(ctx)
	if code := readyCode(); code != http.StatusOK {
		t.Fatalf("/readyz with one of two replicas down: %d, want 200", code)
	}

	// Writes while down are sloppy: live owners take them, nothing
	// sheds, the single node gets the identical stream.
	const rounds = 20
	for i := 0; i < rounds; i++ {
		events := []server.IngestEvent{
			{Video: fmt.Sprintf("rf-%d", i), Tags: []string{"zz-rf-a", "zz-rf-b", "zz-rf-c"},
				Country: "BR", Views: 70, Upload: true},
			{Video: fmt.Sprintf("rf-%d", i), Tags: []string{"zz-rf-a", "zz-rf-b", "zz-rf-c"},
				Country: "DE", Views: 30},
		}
		for _, url := range []string{gw.URL, single.ts.URL} {
			if code := postJSON(t, client, url+"/v1/ingest", server.IngestRequest{Events: events}, nil); code != http.StatusOK {
				t.Fatalf("ingest round %d at %s with a replica down: status %d", i, url, code)
			}
		}
	}
	foldAll(t, single, nodes[0], nodes[2])
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-rf-a"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-rf-b", "pop"})

	// Revive: the shard answers again but is stale, so it re-enters as
	// syncing (writes yes, reads no) until catch-up rebuilds it from
	// the live replicas under the gateway's write barrier.
	proxies[1].blocked.Store(false)
	g.RefreshHealth(ctx)
	if err := g.CatchUp(ctx); err != nil {
		t.Fatalf("catch-up after revival: %v", err)
	}
	if code := readyCode(); code != http.StatusOK {
		t.Fatalf("/readyz after catch-up: %d, want 200", code)
	}

	// Exactness of the rebuild: cut the OTHER replica, forcing shard 1
	// to serve the slices the two share — including everything ingested
	// while it was dead. Any catch-up gap shows up as a float mismatch.
	proxies[2].blocked.Store(true)
	g.RefreshHealth(ctx)
	g.RefreshHealth(ctx)
	if code := readyCode(); code != http.StatusOK {
		t.Fatalf("/readyz with the other replica down: %d, want 200", code)
	}
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-rf-a"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, []string{"zz-rf-c", "favela", "zz-rf-a"})
	assertSamePrediction(t, client, single.ts.URL, gw.URL, res.Analysis.TagNames()[:40])

	// The stats surface tells the whole story: R=2, one shard down,
	// none syncing.
	var stats struct {
		Cluster struct {
			Replicas int `json:"replicas"`
			Healthy  int `json:"healthy"`
			Shards   []struct {
				Healthy bool `json:"healthy"`
				Syncing bool `json:"syncing"`
			} `json:"shards"`
		} `json:"cluster"`
	}
	resp, err := client.Get(gw.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cluster.Replicas != replicas || stats.Cluster.Healthy != shards-1 {
		t.Fatalf("cluster stats %+v, want replicas=%d healthy=%d", stats.Cluster, replicas, shards-1)
	}
	for i, s := range stats.Cluster.Shards {
		if s.Syncing {
			t.Fatalf("shard %d still syncing after catch-up", i)
		}
	}
}
