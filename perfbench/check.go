package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"viewstags/internal/cluster"
	"viewstags/internal/geo"
	"viewstags/internal/ingest"
	"viewstags/internal/profilestore"
	"viewstags/internal/server"
	"viewstags/internal/tagviews"
)

// tolerance is how far a gateway share may sit from the single-node
// reference: the tier promises the same arithmetic, up to summation
// order.
const tolerance = 1e-9

// checker compares gateway answers with a single-node reference
// snapshot.
type checker struct {
	ref     *profilestore.Snapshot
	codeIdx map[string]int
	dst     []float64
	sorted  []float64
	checked int
}

func newChecker(ref *profilestore.Snapshot) *checker {
	w := ref.World()
	c := &checker{ref: ref, codeIdx: map[string]int{}, dst: make([]float64, w.N()), sorted: make([]float64, w.N())}
	for i, code := range w.Codes() {
		c.codeIdx[code] = i
	}
	return c
}

// result checks one gateway result for one tag set.
func (c *checker) result(tags []string, got server.PredictResult) error {
	c.checked++
	known := c.ref.PredictInto(c.dst, tags, tagviews.WeightIDF)
	if got.Known != known {
		return fmt.Errorf("tags %q: gateway known=%v, reference known=%v", tags, got.Known, known)
	}
	copy(c.sorted, c.dst)
	sort.Sort(sort.Reverse(sort.Float64Slice(c.sorted)))
	positive := 0
	for _, x := range c.dst {
		if x > 0 {
			positive++
		}
	}
	if want := min(topK, positive); len(got.Top) != want {
		return fmt.Errorf("tags %q: %d countries returned, want %d", tags, len(got.Top), want)
	}
	for j, cs := range got.Top {
		i, ok := c.codeIdx[cs.Country]
		if !ok {
			return fmt.Errorf("tags %q: unknown country %q", tags, cs.Country)
		}
		if math.Abs(cs.Share-c.dst[i]) > tolerance || math.Abs(cs.Share-c.sorted[j]) > tolerance {
			return fmt.Errorf("tags %q: %s share %.17g, reference %.17g (rank %d: %.17g)",
				tags, cs.Country, cs.Share, c.dst[i], j, c.sorted[j])
		}
	}
	return nil
}

// response checks a captured /v1/predict body against its request.
func (c *checker) response(items [][]string, body []byte) error {
	var resp server.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode predict response: %w", err)
	}
	results := resp.Results
	if resp.Result != nil {
		results = []server.PredictResult{*resp.Result}
	}
	if len(results) != len(items) {
		return fmt.Errorf("%d results for %d items", len(results), len(items))
	}
	for i := range items {
		if err := c.result(items[i], results[i]); err != nil {
			return err
		}
	}
	return nil
}

// ask sends one tag-set list to the gateway as a /v1/predict, shaped
// as the load shapes it, and checks every answer.
func (c *checker) ask(hc *http.Client, base string, items [][]string) error {
	resp, err := hc.Post(base+"/v1/predict", "application/json", bytes.NewReader(predictBody(items)))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("check predict: status %d: %s", resp.StatusCode, buf.String())
	}
	return c.response(items, buf.Bytes())
}

// queryAll sends every request from `clients` goroutines at once and
// checks each answer against ref. Concurrent requests share a fan-out
// when the gateway coalesces, so splitting a shared batch back into
// answers is checked too. It returns how many results were checked.
func queryAll(hc *http.Client, base string, ref *profilestore.Snapshot, reqs [][][]string) (int, error) {
	var next atomic.Int64
	checked := make([]int, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newChecker(ref)
			for errs[w] == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					break
				}
				errs[w] = c.ask(hc, base, reqs[i])
			}
			checked[w] = c.checked
		}(w)
	}
	wg.Wait()
	n := 0
	for _, k := range checked {
		n += k
	}
	return n, errors.Join(errs...)
}

// coalesced reads the gateway's coalescer counters from /v1/stats: the
// shared fan-outs it ran and the client predicts they served.
func coalesced(hc *http.Client, base string) (fanouts, requests int64, err error) {
	resp, err := hc.Get(base + "/v1/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Cluster cluster.ClusterStats `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, fmt.Errorf("gateway /v1/stats: %w", err)
	}
	return st.Cluster.CoalesceBatches, st.Cluster.CoalesceRequests, nil
}

// foldedReference folds the acked writes into the whole-vocabulary
// snapshot through the same accumulator and rebuild the shards use,
// in one epoch.
func foldedReference(base *profilestore.Snapshot, world *geo.World, writes [][]server.IngestEvent) (*profilestore.Snapshot, error) {
	store, err := profilestore.NewStore(base)
	if err != nil {
		return nil, err
	}
	acc, err := ingest.NewAccumulator(store, 1<<24)
	if err != nil {
		return nil, err
	}
	for _, evs := range writes {
		batch := make([]ingest.Event, len(evs))
		for i, e := range evs {
			cid, ok := world.ByCode(e.Country)
			if !ok {
				return nil, fmt.Errorf("unknown country %q", e.Country)
			}
			batch[i] = ingest.Event{Video: e.Video, Tags: e.Tags, Country: cid, Views: e.Views, Upload: e.Upload}
		}
		if err := acc.Add(batch); err != nil {
			return nil, err
		}
	}
	deltas, newRecords, _, _ := acc.Drain()
	return profilestore.Rebuild(base, deltas, newRecords)
}
