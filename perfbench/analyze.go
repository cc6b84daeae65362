package main

import (
	"sort"
	"strings"
	"time"

	"viewstags/internal/stats"
)

// traceStats is what the traced phase's spans say about each layer.
type traceStats struct {
	m map[string]float64
	// accounted is mean(client overhead + pre-fan-out + slowest leg +
	// post-fan-out) over the mean client-measured read latency.
	accounted float64
}

// byName groups spans by name.
func byName(spans []span) map[string][]*span {
	out := map[string][]*span{}
	for i := range spans {
		s := &spans[i]
		out[s.name] = append(out[s.name], s)
	}
	return out
}

func durPcts(ss []*span, unit time.Duration, qs ...float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.dur()) / float64(unit)
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = stats.Quantile(xs, q)
	}
	return out
}

// covered is the length of the union of the intervals [s.start, s.end)
// clipped to [from, to).
func covered(ss []*span, from, to time.Time) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range ss {
		a, b := s.start, s.end
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.a.After(cur.b) {
			if i > 0 {
				total += cur.b.Sub(cur.a)
			}
			cur = v
			continue
		}
		if v.b.After(cur.b) {
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// analyze derives the per-layer metrics from the traced phase's spans
// and the client outcomes of the same phase.
func analyze(spans []span, reads []*outcome) traceStats {
	m := map[string]float64{}
	g := byName(spans)
	const us = time.Microsecond

	gwPred := g["cluster/v1/predict"]
	p := durPcts(gwPred, us, 0.5, 0.99)
	m["cluster.predict_p50_us"], m["cluster.predict_p99_us"] = p[0], p[1]

	legs := g["leg/internal/predict"]
	legsOf := map[string][]*span{}  // client request id -> its legs
	fanouts := map[string][]*span{} // shard-bound id (comma-joined when coalesced) -> legs
	var reqBytes, respBytes []float64
	for _, l := range legs {
		fanouts[l.rid] = append(fanouts[l.rid], l)
		for _, id := range strings.Split(l.rid, ",") {
			legsOf[id] = append(legsOf[id], l)
		}
		reqBytes = append(reqBytes, float64(l.n))
		respBytes = append(respBytes, float64(l.m))
	}
	p = durPcts(legs, us, 0.5, 0.99)
	m["cluster.leg_p50_us"], m["cluster.leg_p99_us"] = p[0], p[1]
	m["cluster.leg_req_bytes"], m["cluster.leg_resp_bytes"] = stats.Mean(reqBytes), stats.Mean(respBytes)
	m["cluster.legs_per_predict"] = ratio(float64(len(legs)), float64(len(gwPred)))
	members := 0
	var spread []float64
	for id, ls := range fanouts {
		members += strings.Count(id, ",") + 1
		lo, hi := ls[0].dur(), ls[0].dur()
		for _, l := range ls[1:] {
			lo, hi = min(lo, l.dur()), max(hi, l.dur())
		}
		spread = append(spread, float64(hi-lo)/float64(us))
	}
	m["cluster.coalesce_factor"] = ratio(float64(members), float64(len(fanouts)))
	m["cluster.leg_spread_p99_us"] = stats.Quantile(spread, 0.99)

	type legKey struct {
		rid   string
		shard int
	}
	shardPred := g["server/internal/predict"]
	srvOf := make(map[legKey]*span, len(shardPred))
	for _, s := range shardPred {
		srvOf[legKey{s.rid, s.shard}] = s
	}
	var overhead []float64
	for _, l := range legs {
		if s, ok := srvOf[legKey{l.rid, l.shard}]; ok {
			overhead = append(overhead, float64(l.dur()-s.dur())/float64(us))
		}
	}
	m["cluster.leg_overhead_p50_us"] = stats.Quantile(overhead, 0.5)
	p = durPcts(shardPred, us, 0.5, 0.99)
	m["server.predict_p50_us"], m["server.predict_p99_us"] = p[0], p[1]

	// Per client predict: the gateway's time before its first leg,
	// after its last, and not covered by any leg.
	gwOf := make(map[string]*span, len(gwPred))
	var pre, post, self []float64
	for _, s := range gwPred {
		gwOf[s.rid] = s
		ls := legsOf[s.rid]
		if len(ls) == 0 {
			continue
		}
		first, last := ls[0].start, ls[0].end
		for _, l := range ls[1:] {
			if l.start.Before(first) {
				first = l.start
			}
			if l.end.After(last) {
				last = l.end
			}
		}
		pre = append(pre, float64(first.Sub(s.start))/float64(us))
		post = append(post, float64(s.end.Sub(last))/float64(us))
		self = append(self, float64(s.dur()-covered(ls, s.start, s.end))/float64(us))
	}
	m["cluster.pre_fanout_p50_us"] = stats.Quantile(pre, 0.5)
	m["cluster.post_fanout_p50_us"] = stats.Quantile(post, 0.5)
	m["cluster.self_p50_us"] = stats.Quantile(self, 0.5)

	// Accounting: client overhead + pre + slowest leg + post, against
	// the client-measured read latency, over reads traced end to end.
	var parts, whole []float64
	for i := range reads {
		o := reads[i]
		s, ok := gwOf[o.rid]
		if !ok || !o.ok() || len(legsOf[o.rid]) == 0 {
			continue
		}
		ls := legsOf[o.rid]
		first, last, slowest := ls[0].start, ls[0].end, time.Duration(0)
		for _, l := range ls {
			if l.start.Before(first) {
				first = l.start
			}
			if l.end.After(last) {
				last = l.end
			}
			slowest = max(slowest, l.dur())
		}
		client := o.done - o.sent
		parts = append(parts, float64(client-s.dur()+first.Sub(s.start)+slowest+s.end.Sub(last)))
		whole = append(whole, float64(client))
	}
	acc := ratio(stats.Mean(parts), stats.Mean(whole))

	gwIng := g["cluster/v1/ingest"]
	p = durPcts(gwIng, us, 0.5, 0.99)
	m["cluster.ingest_p50_us"], m["cluster.ingest_p99_us"] = p[0], p[1]
	p = durPcts(g["server/internal/ingest"], us, 0.5, 0.99)
	m["server.ingest_p50_us"], m["server.ingest_p99_us"] = p[0], p[1]
	wal := g["persist.wal_append"]
	p = durPcts(wal, us, 0.5, 0.99)
	m["persist.wal_append_p50_us"], m["persist.wal_append_p99_us"] = p[0], p[1]
	m["cluster.ingest_legs_per_write"] = ratio(float64(len(g["leg/internal/ingest"])), float64(len(gwIng)))
	m["persist.wal_appends_per_write"] = ratio(float64(len(wal)), float64(len(gwIng)))

	folds := g["ingest.fold"]
	p = durPcts(folds, time.Millisecond, 0.5, 0.99)
	m["ingest.fold_p50_ms"], m["ingest.fold_p99_ms"] = p[0], p[1]
	m["ingest.folds"] = float64(len(folds))
	tags := 0
	for _, f := range folds {
		tags += f.n
	}
	m["ingest.fold_tags"] = float64(tags)
	p = durPcts(g["persist.checkpoint"], time.Millisecond, 0.5, 1)
	m["persist.checkpoint_p50_ms"], m["persist.checkpoint_max_ms"] = p[0], p[1]
	m["profilestore.export_ms"] = durPcts(g["profilestore.export"], time.Millisecond, 0.5)[0]
	return traceStats{m: m, accounted: acc}
}
