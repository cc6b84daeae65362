package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/cluster"
	"viewstags/internal/geo"
	"viewstags/internal/ingest"
	"viewstags/internal/persist"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// Catalog and tier constants shared by every workload: the daemons'
// defaults (cmd/serve -videos 20000 -seed 20110301) and the fold and
// checkpoint cadence OPERATIONS.md recommends for a durable tier.
const (
	catalogVideos = 20000
	catalogSeed   = 20110301
	numShards     = 3
	foldEvery     = 250 * time.Millisecond
	ckptEvery     = 4
	grace         = 5 * time.Second
)

// tierConfig is what varies between workloads.
type tierConfig struct {
	replicas int
	dataDir  string        // "" = in-memory shards; else one subdirectory per shard
	coalesce time.Duration // gateway micro-batch window (0 = off)
	rec      *recorder     // nil = untraced: the seams are passed through unwrapped
}

// setupTiming splits one tier start into the stages per-layer metrics
// name. total runs from entry to startTier until the gateway is synced
// and every shard answers /readyz.
type setupTiming struct {
	total, synth, build, boot, sync time.Duration
}

// foldLog keeps one (start, end) pair per fold install on a shard, in
// both traced and untraced runs: visible_p50_ms is computed from it.
type foldLog struct {
	mu    sync.Mutex
	spans [][2]time.Time
}

func (f *foldLog) add(start, end time.Time) {
	f.mu.Lock()
	f.spans = append(f.spans, [2]time.Time{start, end})
	f.mu.Unlock()
}

func (f *foldLog) snapshot() [][2]time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][2]time.Time(nil), f.spans...)
}

// node is one shard daemon, wired as cmd/serve wires it.
type node struct {
	srv   *server.Server
	acc   *ingest.Accumulator
	comp  *ingest.Compactor
	mgr   *persist.Manager
	folds foldLog
	url   string
}

// tier is the whole serving tier in this process: shards and gateway on
// real loopback listeners.
type tier struct {
	res    *pipeline.Result // the catalog and analysis; dropped before the load
	world  *geo.World
	ring   *cluster.Ring
	nodes  []*node
	gw     *cluster.Gateway
	url    string
	timing setupTiming

	cancel context.CancelFunc // stops listeners and the health poll
	wg     sync.WaitGroup     // serve goroutines and the health poll
	compWG sync.WaitGroup     // compactor loops
	stopC  context.CancelFunc // stops the compactors (after the listeners)
}

// startTier assembles the serving tier from the public constructors
// cmd/serve and cmd/gateway use. It is the only place the benchmark
// builds the tier, so a constructor change is absorbed here.
func startTier(cfg tierConfig) (t *tier, err error) {
	begin := time.Now()
	logger := log.New(os.Stderr, "perfbench: ", log.LstdFlags)
	quiet := log.New(io.Discard, "", 0)

	res, err := pipeline.FromSynthetic(catalogVideos, catalogSeed, alexa.DefaultConfig())
	if err != nil {
		return nil, err
	}
	t = &tier{res: res, world: res.World}
	t.timing.synth = time.Since(begin)
	t.ring, err = cluster.NewRingReplicas(numShards, 0, cfg.replicas)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	compCtx, stopC := context.WithCancel(context.Background())
	t.cancel, t.stopC = cancel, stopC
	defer func() {
		if err != nil {
			t.stop()
		}
	}()

	targets := make([]string, numShards)
	shardOf := make(map[string]int, numShards)
	for i := 0; i < numShards; i++ {
		nd, err := t.startNode(ctx, compCtx, cfg, i, logger)
		if err != nil {
			return t, fmt.Errorf("shard %d: %w", i, err)
		}
		targets[i] = nd.url
		shardOf[nd.url[len("http://"):]] = i
	}

	gcfg := cluster.DefaultGatewayConfig()
	gcfg.Logger = quiet
	gcfg.Replicas = cfg.replicas
	gcfg.CoalesceWindow = cfg.coalesce
	if cfg.rec != nil {
		gcfg.Transport = cfg.rec.transport(&http.Transport{
			MaxIdleConns:        2 * gcfg.MaxInFlight * numShards,
			MaxIdleConnsPerHost: 2 * gcfg.MaxInFlight,
		}, shardOf)
	}
	if t.gw, err = cluster.NewGateway(gcfg, targets); err != nil {
		return t, err
	}
	syncStart := time.Now()
	if err = t.gw.Sync(ctx); err != nil {
		return t, err
	}
	t.timing.sync = time.Since(syncStart)
	var h http.Handler = t.gw.Handler()
	if cfg.rec != nil {
		h = cfg.rec.handler(h, "cluster", -1)
	}
	if t.url, err = t.serve(ctx, h); err != nil {
		return t, err
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(gcfg.HealthInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				t.gw.RefreshHealth(ctx)
			}
		}
	}()
	for _, u := range append(targets, t.url) {
		if err = probeReady(u); err != nil {
			return t, err
		}
	}
	t.timing.total = time.Since(begin)
	return t, nil
}

// startNode builds, recovers (when durable) and serves shard i.
func (t *tier) startNode(ctx, compCtx context.Context, cfg tierConfig, i int, logger *log.Logger) (*node, error) {
	buildStart := time.Now()
	snap, err := profilestore.BuildOwned(t.res.Analysis, func(name string) bool { return t.ring.Owns(name, i) })
	if err != nil {
		return nil, err
	}
	t.timing.build += time.Since(buildStart)
	nd := &node{}
	t.nodes = append(t.nodes, nd) // so tier.stop closes its WAL on any error
	var meta persist.CheckpointMeta
	bootStart := time.Now()
	if cfg.dataDir != "" {
		dir := filepath.Join(cfg.dataDir, fmt.Sprintf("shard-%d-of-%d", i, numShards))
		if nd.mgr, err = persist.Open(persist.Options{Dir: dir, Logger: log.New(io.Discard, "", 0)}); err != nil {
			return nil, err
		}
		recSnap, m, found, err := nd.mgr.LoadCheckpoint(t.res.Analysis.World)
		if err != nil {
			return nil, err
		}
		if found {
			snap, meta = recSnap, m
		}
	}
	store, err := profilestore.NewStore(snap)
	if err != nil {
		return nil, err
	}
	scfg := server.DefaultConfig()
	scfg.Logger = logger
	scfg.ShardIndex = i
	scfg.ShardCount = numShards
	scfg.Replicas = cfg.replicas
	scfg.RingSignature = t.ring.Signature()
	scfg.Topology = t.ring
	scfg.MakeTopology = func(shards, replicas int) (server.ShardTopology, error) {
		return cluster.NewRingReplicas(shards, 0, replicas)
	}
	if nd.srv, err = server.New(scfg, store); err != nil {
		return nil, err
	}
	if nd.acc, err = ingest.NewAccumulator(store, 1<<20); err != nil {
		return nil, err
	}
	if err := nd.srv.EnableIngest(nd.acc, foldEvery); err != nil {
		return nil, err
	}
	rec := cfg.rec
	nd.comp, err = ingest.NewCompactor(nd.acc, foldEvery, func(d []profilestore.TagDelta, n int) error {
		start := time.Now()
		err := nd.srv.ApplyDeltas(d, n, tagviews.WeightIDF)
		end := time.Now()
		nd.folds.add(start, end)
		rec.add(span{name: "ingest.fold", parent: "ingest.compactor", shard: i, start: start, end: end, n: len(d)})
		return err
	}, logger)
	if err != nil {
		return nil, err
	}
	nd.srv.SetFoldHook(nd.comp.FoldNow)
	if nd.mgr != nil {
		mgr, acc := nd.mgr, nd.acc
		acc.Restore(meta.Gen, meta.Epoch)
		maxGen, _, err := mgr.Replay(meta.Gen, acc.Replay)
		if err != nil {
			return nil, err
		}
		if maxGen >= meta.Gen {
			acc.Restore(maxGen+1, meta.Epoch)
		}
		nd.comp.SetCheckpoint(func(gen uint64) error {
			start := time.Now()
			data := store.Load().Export()
			mid := time.Now()
			err := mgr.SaveCheckpoint(persist.CheckpointMeta{Gen: gen, Epoch: acc.Epoch()}, data)
			rec.add(span{name: "profilestore.export", parent: "ingest.compactor", shard: i, start: start, end: mid})
			rec.add(span{name: "persist.checkpoint", parent: "ingest.compactor", shard: i, start: mid, end: time.Now()})
			return err
		}, ckptEvery)
		if _, err := nd.comp.CheckpointNow(); err != nil {
			return nil, err
		}
		if rec != nil {
			acc.SetJournal(journalSpans{mgr: mgr, rec: rec, shard: i})
		} else {
			acc.SetJournal(mgr)
		}
		if err := nd.srv.EnablePersist(mgr.Stats, nil); err != nil {
			return nil, err
		}
		nd.srv.SetPersistHists(mgr.WALAppendHist(), mgr.CheckpointHist())
		t.timing.boot += time.Since(bootStart)
	}
	t.compWG.Add(1)
	go func() {
		defer t.compWG.Done()
		nd.comp.Run(compCtx)
	}()
	nd.srv.SetReady()
	var h http.Handler = nd.srv.Handler()
	if rec != nil {
		h = rec.handler(h, "server", i)
	}
	if nd.url, err = t.serve(ctx, h); err != nil {
		return nil, err
	}
	return nd, nil
}

// serve runs h on a fresh loopback listener until ctx ends.
func (t *tier) serve(ctx context.Context, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if err := server.ServeHandler(ctx, ln, h, grace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// probeReady requires 200 from base/readyz.
func probeReady(base string) error {
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/readyz: status %d", base, resp.StatusCode)
	}
	return nil
}

// foldAll forces a final fold on every shard, so every acked write is
// visible.
func (t *tier) foldAll() error {
	for i, nd := range t.nodes {
		if _, err := nd.comp.FoldNow(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// stop shuts the tier down and waits for every goroutine it started:
// listeners drain first, then the compactors run their shutdown fold
// (and checkpoint), then the WALs close.
func (t *tier) stop() {
	t.cancel()
	t.wg.Wait()
	t.stopC()
	t.compWG.Wait()
	for _, nd := range t.nodes {
		if nd.mgr != nil {
			if err := nd.mgr.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: close wal:", err)
			}
		}
	}
}
