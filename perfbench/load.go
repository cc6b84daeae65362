package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"viewstags/internal/obs"
	"viewstags/internal/pipeline"
	"viewstags/internal/server"
	"viewstags/internal/xrand"
)

const (
	// clients is the connection count: nproc on the 2-vCPU machine the
	// workloads were sized on.
	clients       = 2
	clientTimeout = 10 * time.Second
	novelShare    = 0.05 // share of tag sets replaced by never-seen tags
	zipfS         = 1.1
	eventsPerPost = 8 // events per /v1/ingest body; the last one is an upload
	topK          = 5
)

// op is one pre-marshalled client request.
type op struct {
	write  bool
	body   []byte
	items  [][]string           // read: the predicted tag sets
	events []server.IngestEvent // write: the events posted
}

// outcome is what the client saw for one op. Times are offsets from
// the run's origin.
type outcome struct {
	op              *op
	rid             string
	due, sent, done time.Duration
	late            time.Duration // how late the generator sent it
	status          int           // 0 = transport error
	body            []byte        // response body, kept only for sampled reads
}

func (o *outcome) ok() bool { return o.status == http.StatusOK }

// latency is the client-visible latency from the due time; a failed or
// refused request counts as the client timeout, slower than any limit.
func (o *outcome) latency() time.Duration {
	if !o.ok() {
		return clientTimeout
	}
	return o.done - o.due
}

// streamGen draws tag sets from the catalog: videos with tags, ranked
// by upload order, picked with Zipf(1.1), with novelShare of the sets
// replaced by tags no profile holds (so the prior-fallback path runs).
type streamGen struct {
	src       *xrand.Source
	zipf      *xrand.Zipf
	tagSets   [][]string
	videoIDs  []string
	countries []string
	traffic   *xrand.Categorical
	seed      uint64
	novel     int
	uploads   int
}

func newStreamGen(res *pipeline.Result, seed uint64, label string) *streamGen {
	src := xrand.NewSource(seed).Fork(label)
	g := &streamGen{src: src, seed: seed, countries: res.World.Codes()}
	cat := res.Catalog
	for i := range cat.Videos {
		if names := cat.Videos[i].TagNames(cat.Vocab); len(names) > 0 {
			g.tagSets = append(g.tagSets, names)
			g.videoIDs = append(g.videoIDs, cat.Videos[i].ID)
		}
	}
	g.zipf = xrand.NewZipf(src, zipfS, len(g.tagSets))
	g.traffic = xrand.NewCategorical(src, res.World.Traffic())
	return g
}

// tags returns one tag set and the catalog video it came from ("" for
// a novel set).
func (g *streamGen) tags(prefix string) ([]string, string) {
	if g.src.Float64() < novelShare {
		n := 1 + g.src.Intn(3)
		out := make([]string, n)
		for i := range out {
			g.novel++
			out[i] = prefix + "-" + strconv.FormatUint(g.seed, 10) + "-" + strconv.Itoa(g.novel)
		}
		return out, ""
	}
	r := g.zipf.Rank()
	return g.tagSets[r], g.videoIDs[r]
}

func (g *streamGen) read(batch int) *op {
	o := &op{items: make([][]string, batch)}
	for i := range o.items {
		o.items[i], _ = g.tags("novel-read")
	}
	o.body = predictBody(o.items)
	return o
}

// predictBody is the /v1/predict body for the tag sets: a single
// predict for one set, a batch for more.
func predictBody(items [][]string) []byte {
	req := server.PredictRequest{Weighting: "idf", Top: topK}
	if len(items) == 1 {
		req.Tags = items[0]
	} else {
		req.Batch = make([]server.PredictItem, len(items))
		for i := range req.Batch {
			req.Batch[i].Tags = items[i]
		}
	}
	return mustJSON(req)
}

func (g *streamGen) write() *op {
	o := &op{write: true, events: make([]server.IngestEvent, eventsPerPost)}
	for i := range o.events {
		tags, video := g.tags("novel-write")
		e := server.IngestEvent{Video: video, Tags: tags, Country: g.countries[g.traffic.Draw()],
			Views: float64(1 + g.src.Intn(500))}
		if i == eventsPerPost-1 {
			g.uploads++
			e.Video = "upload-" + strconv.FormatUint(g.seed, 10) + "-" + strconv.Itoa(g.uploads)
			e.Upload = true
		}
		o.events[i] = e
	}
	o.body = mustJSON(server.IngestRequest{Events: o.events})
	return o
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled
	}
	return b
}

// client posts pre-marshalled bodies over at most `clients` keep-alive
// connections.
type client struct {
	hc   *http.Client
	base string
	seq  atomic.Int64
}

func newClient(base string) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: clientTimeout}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one op and fills in the outcome's status, rid and times.
func (c *client) do(o *outcome, origin time.Time, keepBody bool) {
	path := "/v1/predict"
	prefix := "r"
	if o.op.write {
		path, prefix = "/v1/ingest", "w"
	}
	o.rid = prefix + strconv.FormatInt(c.seq.Add(1), 10)
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(o.op.body))
	if err != nil {
		o.done = time.Since(origin)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, o.rid)
	o.sent = time.Since(origin)
	resp, err := c.hc.Do(req)
	if err != nil {
		o.done = time.Since(origin)
		return
	}
	if keepBody {
		o.body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	_ = resp.Body.Close()
	o.done = time.Since(origin)
	if err == nil {
		o.status = resp.StatusCode
	}
}

// sampleEvery keeps every n-th read's response body for the
// correctness check.
const sampleEvery = 50

// openLoop sends ops[i] at origin + i/rate from `clients`
// workers: each takes the next op, sleeps until it is due, sends it and
// waits for the reply. Latency runs from the due time, so a stall
// charges every request queued behind it; late is how far past
// max(due, worker free) the send happened — the generator's own lag.
func (c *client) openLoop(ops []*op, rate float64, origin time.Time) []outcome {
	out := make([]outcome, len(ops))
	var next atomic.Int64
	period := float64(time.Second) / rate
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				free := time.Since(origin)
				o := &out[i]
				o.op = ops[i]
				o.due = time.Duration(float64(i) * period)
				if d := o.due - free; d > 0 {
					time.Sleep(d)
				}
				c.do(o, origin, !o.op.write && i%sampleEvery == 0)
				o.late = o.sent - max(o.due, free)
			}
		}()
	}
	wg.Wait()
	return out
}
