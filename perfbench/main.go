// Command perfbench is the serving-tier benchmark: it assembles shards
// and gateway in one process on loopback TCP, drives one workload
// through the gateway from at most two client connections, checks the
// answers against a single-node reference, and prints one JSON result
// line. See README.md in this directory for the workloads, the metrics
// and what each layer metric should move.
//
//	bash perfbench/run.sh --workload gw-single --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/pipeline"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
	"viewstags/internal/stats"
)

// workload is one traffic mix over one tier shape.
type workload struct {
	name      string
	replicas  int
	durable   bool
	coalesce  time.Duration
	readRate  float64 // open-loop predicts/s
	writeRate float64 // open-loop /v1/ingest posts/s inside the window
	batch     int     // items per predict
}

var workloads = []workload{
	{name: "gw-single", replicas: 1, readRate: 1500, batch: 1},
	{name: "gw-batch32", replicas: 1, readRate: 400, batch: 32},
	{name: "durable-mix", replicas: 2, durable: true, coalesce: 500 * time.Microsecond, readRate: 400, writeRate: postRate, batch: 1},
}

const (
	setups     = 3                     // tier starts per run; setup_s is their median
	warmup     = time.Second           // load before the measured window, not scored
	settle     = 2 * foldEvery         // after the load: let the fold ticker catch up
	maxLateP99 = 20 * time.Millisecond // generator send lag beyond this at p99: run invalid

	// postRate is the one write rate the workloads were sized with:
	// durable-mix's 100 /v1/ingest posts/s of 8 events.
	postRate = 100.0

	// The write probe: workloads without writes in their window post
	// ingest batches after it, on an otherwise idle tier, so every
	// workload reports the write metrics. It is durable-mix's write
	// stream (postRate, the same generator), open loop on the same two
	// connections, scored over 6 s: 600 posts, 6 sub-windows of 100.
	probeWarm = 500 * time.Millisecond
	probeTime = 6 * time.Second
)

// specFile lists the metrics a run prints, with their units.
const specFile = "BENCHMARK.json"

type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stream is the failure accounting of one request stream.
type stream struct {
	Sent, OK, Non200, Shed, Transport int
}

func account(outs []*outcome) stream {
	var s stream
	for _, o := range outs {
		switch {
		case o.ok():
			s.OK++
		case o.status == 0:
			s.Transport++
		case o.status == http.StatusServiceUnavailable:
			s.Shed++
		default:
			s.Non200++
		}
		s.Sent++
	}
	return s
}

func (s stream) failed() int { return s.Sent - s.OK }

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		name    = flag.String("workload", "", "workload: gw-single, gw-batch32 or durable-mix")
		seed    = flag.Uint64("seed", 1, "workload seed: drives the request stream")
		seconds = flag.Int("seconds", 20, "measured window length")
		trace   = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for span and result files")
		commit  = flag.String("commit", "unknown", "source commit recorded in the result")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return 0, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 2 || (*trace != 0 && *trace != 1) {
		return 0, fmt.Errorf("need -seconds >= 2 and -trace 0 or 1")
	}
	traced := *trace == 1
	spec, err := readSpec(specFile)
	if err != nil {
		return 0, err
	}
	window := time.Duration(*seconds) * time.Second
	for _, d := range []string{"tmp", "spans", "results"} {
		if err := os.MkdirAll(filepath.Join(*out, d), 0o755); err != nil {
			return 0, err
		}
	}

	env := map[string]any{
		"workload": wl.name, "seed": *seed, "catalog_seed": catalogSeed, "catalog_videos": catalogVideos,
		"seconds": *seconds, "trace": *trace, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": *commit,
	}
	fmt.Printf("# env %s\n", mustJSON(env))

	// Set up several times; keep the last tier.
	var t *tier
	var rec *recorder
	var dataDir string
	var timings []setupTiming
	for k := 0; k < setups; k++ {
		if t != nil {
			t.stop()
			_ = os.RemoveAll(dataDir)
		}
		cfg := tierConfig{replicas: wl.replicas, coalesce: wl.coalesce}
		if wl.durable {
			d, err := os.MkdirTemp(filepath.Join(*out, "tmp"), "data-")
			if err != nil {
				return 0, err
			}
			dataDir, cfg.dataDir = d, d
		}
		if traced {
			rec = &recorder{}
			cfg.rec = rec
		}
		var err error
		if t, err = startTier(cfg); err != nil {
			_ = os.RemoveAll(dataDir)
			return 0, fmt.Errorf("setup: %w", err)
		}
		timings = append(timings, t.timing)
	}
	defer func() {
		t.stop()
		_ = os.RemoveAll(dataDir)
	}()
	setupMedian := func(f func(setupTiming) time.Duration) float64 {
		ds := make([]float64, len(timings))
		for i, st := range timings {
			ds[i] = f(st).Seconds()
		}
		return stats.Median(ds)
	}

	// Inputs: every body is generated from the seed before the clock
	// starts.
	gen := newStreamGen(t.res, *seed, wl.name)
	total := wl.readRate + wl.writeRate
	ops := make([]*op, int(total*(warmup+window).Seconds()))
	every := 0
	if wl.writeRate > 0 {
		every = int(total / wl.writeRate)
	}
	for i := range ops {
		if every > 0 && i%every == every-1 {
			ops[i] = gen.write()
		} else {
			ops[i] = gen.read(wl.batch)
		}
	}
	// A shard daemon keeps only its snapshot once built; so does this
	// process during the load. The reference is rebuilt afterwards.
	t.res = nil
	runtime.GC()

	cl := newClient(t.url)
	defer cl.close()

	// The measured window is [warmup, warmup+window). A traced run
	// splits it: the first half untraced (the overhead baseline), the
	// second traced.
	from, to := warmup, warmup+window
	flip := to
	if traced {
		flip = warmup + window/2
	}
	origin := time.Now()
	first := from
	if traced {
		first = flip
	}
	samples := make(chan procSample, 2)
	go func() {
		time.Sleep(time.Until(origin.Add(first)))
		if traced {
			rec.on.Store(true)
		}
		samples <- sampleProc()
		time.Sleep(time.Until(origin.Add(to)))
		samples <- sampleProc()
	}()
	outs := cl.openLoop(ops, total, origin)
	procA, procB := <-samples, <-samples

	// Writes are scored over the window in durable-mix, over the probe
	// (after its warm-up) elsewhere.
	wOrigin, wfrom, wto := origin, from, to
	var probeOuts []outcome
	if wl.writeRate == 0 {
		probe := make([]*op, int(postRate*(probeWarm+probeTime).Seconds()))
		for i := range probe {
			probe[i] = gen.write()
		}
		wOrigin = time.Now()
		probeOuts = cl.openLoop(probe, postRate, wOrigin)
		wfrom, wto = probeWarm, probeWarm+probeTime
	}
	time.Sleep(settle)
	if err := t.foldAll(); err != nil {
		return 0, err
	}
	if rec != nil {
		rec.on.Store(false)
	}

	var reads, writes, tracedReads, baseReads []*outcome
	var acked [][]server.IngestEvent
	var kept []outcome // the sampled reads, with their bodies (a copy: outs is released)
	for i := range outs {
		o := &outs[i]
		if o.op.write && o.ok() {
			acked = append(acked, o.op.events)
		}
		if o.body != nil && o.ok() {
			kept = append(kept, *o)
		}
		if a := o.due; a < from || a >= to {
			continue
		} else if o.op.write {
			writes = append(writes, o)
		} else {
			reads = append(reads, o)
			if a >= flip {
				tracedReads = append(tracedReads, o)
			} else {
				baseReads = append(baseReads, o)
			}
		}
	}
	for i := range probeOuts {
		o := &probeOuts[i]
		if o.ok() {
			acked = append(acked, o.op.events)
		}
		if a := o.due; a >= wfrom && a < wto {
			writes = append(writes, o)
		}
	}

	// Streams and validity.
	rs, ws := account(reads), account(writes)
	var lates []float64
	for i := range outs {
		if a := outs[i].due; a >= from && a < to {
			lates = append(lates, ms(outs[i].late))
		}
	}
	lateP99 := stats.Quantile(lates, 0.99)
	fmt.Printf("# stream read  sent=%d ok=%d failed=%d non200=%d shed503=%d transport=%d\n", rs.Sent, rs.OK, rs.failed(), rs.Non200, rs.Shed, rs.Transport)
	fmt.Printf("# stream write sent=%d ok=%d failed=%d non200=%d shed503=%d transport=%d\n", ws.Sent, ws.OK, ws.failed(), ws.Non200, ws.Shed, ws.Transport)
	fmt.Printf("# loadgen late_p99_ms=%.4f\n", lateP99)
	if rs.Sent == 0 {
		return 0, fmt.Errorf("no reads in the measured window")
	}
	correct := true
	fail := func(format string, args ...any) {
		correct = false
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
	}

	// End-to-end metrics. The gated ones are taken per sub-window (up
	// to 20, at least 100 requests each) and the run reports the better
	// quartile of its sub-windows: interference from other tenants of a
	// shared machine only ever slows the tier, and a slow minute drives
	// an open loop into queueing, while a change that slows every
	// request moves every sub-window. The per-sub-window values go to
	// the result file.
	subs := map[string][]float64{}
	quartile := func(name string, outs []*outcome, at func(*outcome) time.Duration, from, to time.Duration, better float64, f func([]*outcome) float64) float64 {
		subs[name] = subValues(outs, at, from, to, subWindows(len(outs)), f)
		return stats.Quantile(subs[name], better)
	}
	p50 := func(os []*outcome) float64 { return stats.Quantile(latencies(os), 0.5) }
	// Predictions completed per second: within a sub-window, the items
	// of the replies after its first, over the time between its first
	// and last reply.
	predRate := func(os []*outcome) float64 {
		n, firstN, first, last := 0, 0, time.Duration(math.MaxInt64), time.Duration(0)
		for _, o := range os {
			if !o.ok() {
				continue
			}
			n += len(o.op.items)
			if o.done < first {
				first, firstN = o.done, len(o.op.items)
			}
			last = max(last, o.done)
		}
		return ratio(float64(n-firstN), (last - first).Seconds())
	}
	values := map[string]float64{
		"setup_s":        setupMedian(func(s setupTiming) time.Duration { return s.total }),
		"read_p50_ms":    quartile("read_p50_ms", reads, dueOf, from, to, 0.25, p50),
		"preds_per_s":    quartile("preds_per_s", reads, doneOf, from, to, 0.75, predRate),
		"write_p50_ms":   quartile("write_p50_ms", writes, dueOf, wfrom, wto, 0.25, p50),
		"read_p99_ms":    stats.Quantile(latencies(reads), 0.99),
		"write_p99_ms":   stats.Quantile(latencies(writes), 0.99),
		"visible_p50_ms": stats.Median(visibility(t, writes, wOrigin)),
	}
	printed := spec.EndToEnd
	// The p99s (over the whole window) are printed, not gated: between
	// seeds they spread by 20% to 100% of their median on the machine the
	// workloads were sized on, more than any bound BENCHMARK.json may set.
	// Traced runs report them as per-layer metrics.
	ungated := []string{"read_p99_ms", "write_p99_ms"}

	if traced {
		ts := analyze(rec.spans, tracedReads)
		cost, err := replay(rec.frames, t)
		if err != nil {
			return 0, fmt.Errorf("replay: %w", err)
		}
		opsDone := 0
		for i := range outs {
			if a := outs[i].due; a >= flip && a < to && outs[i].ok() {
				opsDone++
			}
		}
		shed := 0
		for _, nd := range t.nodes {
			shed += int(nd.acc.Stats().Dropped)
		}
		l := ts.m
		for _, name := range ungated {
			l["e2e."+name] = values[name]
		}
		values = l
		printed = spec.PerLayer
		ungated = nil
		l["pipeline.synth_s"] = setupMedian(func(s setupTiming) time.Duration { return s.synth })
		l["profilestore.build_s"] = setupMedian(func(s setupTiming) time.Duration { return s.build })
		l["persist.boot_s"] = setupMedian(func(s setupTiming) time.Duration { return s.boot })
		l["cluster.sync_s"] = setupMedian(func(s setupTiming) time.Duration { return s.sync })
		l["profilestore.predict_partial_ns"] = cost.predictNsPerItem
		l["server.decode_us"], l["server.decode_allocs"] = cost.decodeUs, cost.decodeAllocs
		l["server.encode_us"], l["server.encode_allocs"] = cost.encodeUs, cost.encodeAllocs
		l["server.response_decode_us"] = cost.respDecodeUs
		l["ingest.shed"] = float64(shed)
		l["runtime.cpu_us_per_op"] = ratio(float64((procB.cpu - procA.cpu).Microseconds()), float64(opsDone))
		l["runtime.mallocs_per_op"] = ratio(float64(procB.mallocs-procA.mallocs), float64(opsDone))
		l["runtime.gc_cpu_frac"] = ratio(procB.gcCPU-procA.gcCPU, procB.allCPU-procA.allCPU)
		l["loadgen.late_p99_ms"] = lateP99
		l["loadgen.sent"] = float64(rs.Sent + ws.Sent)
		l["loadgen.failed"] = float64(rs.failed() + ws.failed())
		overhead := ratio(stats.Median(latencies(tracedReads)), stats.Median(latencies(baseReads)))
		l["trace.accounted_share"] = ts.accounted
		l["trace.overhead_ratio"] = overhead
		fmt.Printf("# accounting share=%.4f (need >= 0.90 on gw-single and gw-batch32) tracing_overhead_ratio=%.4f\n", ts.accounted, overhead)
		if wl.coalesce == 0 && ts.accounted < 0.9 {
			fail("accounting: the traced stages cover %.1f%% of the mean read latency, want >= 90%%", 100*ts.accounted)
		}
		spanPath := filepath.Join(*out, "spans", fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
		all := rec.spans
		for _, o := range tracedReads {
			all = append(all, span{name: "client/v1/predict", rid: o.rid, shard: -1,
				start: origin.Add(o.sent), end: origin.Add(o.done)})
		}
		if err := writeSpans(spanPath, all, origin); err != nil {
			return 0, err
		}
		fmt.Printf("# spans %d written to %s\n", len(all), spanPath)
	}

	// The heap is taken with the client's per-request records released,
	// so it reads the tier's state: what stays besides is the sampled
	// reads and the acked events.
	outs, probeOuts, reads, writes, tracedReads, baseReads, ops = nil, nil, nil, nil, nil, nil, nil
	if !traced {
		values["heap_live_mb"] = heapLiveMB()
	}

	// Correctness. On the read-only workloads the sampled answers must
	// equal a single-node reference. Then every sampled tag set and every
	// ingested tag is asked again, after the final fold, against a
	// reference that folded the acked writes; answers served while
	// durable-mix's folds ran are not checked.
	res, err := pipeline.FromSynthetic(catalogVideos, catalogSeed, alexa.DefaultConfig())
	if err != nil {
		return 0, err
	}
	ref, err := profilestore.Build(res.Analysis)
	if err != nil {
		return 0, err
	}
	static := newChecker(ref)
	var again [][][]string // requests for the post-fold check
	for i := range kept {
		o := &kept[i]
		again = append(again, o.op.items)
		if wl.writeRate == 0 {
			if err := static.response(o.op.items, o.body); err != nil {
				fail("sampled read %s: %v", o.rid, err)
				break
			}
		}
	}
	folded, err := foldedReference(ref, t.world, acked)
	if err != nil {
		return 0, fmt.Errorf("reference fold: %w", err)
	}
	seen := map[string]bool{}
	var ingested [][]string
	for _, evs := range acked {
		for _, e := range evs {
			for _, tag := range e.Tags {
				if !seen[tag] {
					seen[tag] = true
					ingested = append(ingested, []string{tag})
				}
			}
		}
	}
	sort.Slice(ingested, func(i, j int) bool { return ingested[i][0] < ingested[j][0] })
	for len(ingested) > 0 {
		n := min(32, len(ingested))
		again, ingested = append(again, ingested[:n]), ingested[n:]
	}
	fan0, req0, err := coalesced(cl.hc, t.url)
	if err != nil {
		return 0, err
	}
	checked, err := queryAll(cl.hc, t.url, folded, again)
	if err != nil {
		fail("after the final fold: %v", err)
	}
	fan1, req1, err := coalesced(cl.hc, t.url)
	if err != nil {
		return 0, err
	}
	// Requests that shared a coalesced fan-out with another.
	shared := (req1 - req0) - (fan1 - fan0)
	if wl.coalesce > 0 && shared == 0 {
		fail("no post-fold check request shared a coalesced fan-out")
	}
	fmt.Printf("# check static_results=%d folded_results=%d acked_writes=%d coalesced_fanouts=%d shared_requests=%d correct=%v\n",
		static.checked, checked, len(acked), fan1-fan0, shared, correct)

	result := map[string]metric{}
	for _, m := range printed {
		v, ok := values[m.Name]
		if !ok {
			return 0, fmt.Errorf("metric %s is listed in %s but not measured", m.Name, specFile)
		}
		result[m.Name] = metric{v, m.Unit}
		fmt.Printf("# metric %-34s %14.4f %s\n", m.Name, v, m.Unit)
	}
	for _, name := range ungated {
		fmt.Printf("# metric %-34s %14.4f ms (not gated)\n", name, values[name])
	}
	resPath := filepath.Join(*out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", wl.name, *seed, *trace))
	full := map[string]any{"env": env, "read": rs, "write": ws, "late_p99_ms": lateP99, "correct": correct, "metrics": result, "sub_windows": subs}
	if err := os.WriteFile(resPath, mustJSON(full), 0o644); err != nil {
		return 0, err
	}
	if time.Duration(lateP99*float64(time.Millisecond)) > maxLateP99 {
		fmt.Fprintf(os.Stderr, "perfbench: INVALID run: the open-loop generator ran %.3f ms late at p99 (limit %s); not scored\n", lateP99, maxLateP99)
		return 3, nil
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rs.Sent + ws.Sent,
		"failed":    rs.failed() + ws.failed(),
		"metrics":   result,
	})
	fmt.Println(string(line))
	return 0, nil
}

// visibility returns, per scored write, the time from its ack to the
// end of the first fold install that began after it on every shard.
// Uploads reach every shard, and every post carries one, so every
// shard is an owner.
func visibility(t *tier, writes []*outcome, origin time.Time) []float64 {
	folds := make([][][2]time.Time, len(t.nodes))
	for i, nd := range t.nodes {
		folds[i] = nd.folds.snapshot()
	}
	var out []float64
	for _, o := range writes {
		if !o.ok() {
			out = append(out, ms(clientTimeout))
			continue
		}
		ack := origin.Add(o.done)
		var worst time.Duration
		for _, fs := range folds {
			j := sort.Search(len(fs), func(j int) bool { return fs[j][0].After(ack) })
			if j == len(fs) {
				worst = clientTimeout
				break
			}
			worst = max(worst, fs[j][1].Sub(ack))
		}
		out = append(out, ms(worst))
	}
	return out
}

// latencies returns each outcome's latency in milliseconds.
func latencies(outs []*outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = ms(o.latency())
	}
	return xs
}

func dueOf(o *outcome) time.Duration  { return o.due }
func doneOf(o *outcome) time.Duration { return o.done }

// subWindows is how many sub-windows a stream of n requests is split
// into: as many as keep 100 requests in each, at most 20, at least 1.
func subWindows(n int) int { return max(1, min(20, n/100)) }

// subValues splits [from, to) into k equal sub-windows by each
// outcome's at time and applies f to each sub-window's outcomes.
func subValues(outs []*outcome, at func(*outcome) time.Duration, from, to time.Duration, k int, f func([]*outcome) float64) []float64 {
	width := (to - from) / time.Duration(k)
	subs := make([][]*outcome, k)
	for _, o := range outs {
		if a := at(o); a >= from && a < to {
			j := min(int((a-from)/width), k-1)
			subs[j] = append(subs[j], o)
		}
	}
	vals := make([]float64, k)
	for j := range subs {
		vals[j] = f(subs[j])
	}
	return vals
}
