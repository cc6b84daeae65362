package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viewstags/internal/ingest"
	"viewstags/internal/obs"
	"viewstags/internal/persist"
)

// span is one timed call at a layer seam. rid is the X-Request-Id the
// call carried (comma-joined for a coalesced shard leg), empty for
// background work. shard is -1 where no shard is involved.
type span struct {
	name, parent, rid string
	shard             int
	start, end        time.Time
	n                 int // fold: tags folded; leg: request bytes
	m                 int // leg: response bytes
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// frame is a captured /internal/predict request body and the shard it
// went to, replayed through the codec after the run.
type frame struct {
	shard int
	body  []byte
}

// maxFrames bounds the captured /internal/predict frames; every
// frameEvery-th predict leg is kept until then.
const (
	maxFrames  = 256
	frameEvery = 8
)

// recorder keeps spans in memory while on is set. All its seam
// wrappers pass straight through while it is off, and every method is
// safe on a nil recorder (the untraced run).
type recorder struct {
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
	legs   int
	frames []frame
}

func (r *recorder) add(s span) {
	if r == nil || !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// handler wraps a node's public Handler(): one span per request, named
// role + path.
func (r *recorder) handler(next http.Handler, role string, shard int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, req)
		parent := "client"
		if role == "server" {
			parent = "leg"
		}
		r.add(span{name: role + req.URL.Path, parent: parent, rid: req.Header.Get(obs.TraceHeader),
			shard: shard, start: start, end: time.Now()})
	})
}

// transport wraps the gateway's shard transport: one span per shard
// leg, ending when the gateway closes the reply body. Health polls of
// /internal/meta are not recorded.
func (r *recorder) transport(base http.RoundTripper, shardOf map[string]int) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		path := req.URL.Path
		if !r.on.Load() || !strings.HasPrefix(path, "/internal/") || path == "/internal/meta" {
			return base.RoundTrip(req)
		}
		shard, ok := shardOf[req.URL.Host]
		if !ok {
			shard = -1
		}
		if path == "/internal/predict" && req.GetBody != nil {
			r.captureFrame(req, shard)
		}
		s := span{name: "leg" + path, parent: "cluster", rid: req.Header.Get(obs.TraceHeader),
			shard: shard, start: time.Now(), n: int(req.ContentLength)}
		resp, err := base.RoundTrip(req)
		if err != nil {
			s.end = time.Now()
			r.add(s)
			return resp, err
		}
		resp.Body = &legBody{ReadCloser: resp.Body, rec: r, s: s}
		return resp, nil
	})
}

func (r *recorder) captureFrame(req *http.Request, shard int) {
	r.mu.Lock()
	r.legs++
	want := len(r.frames) < maxFrames && r.legs%frameEvery == 0
	r.mu.Unlock()
	if !want {
		return
	}
	body, err := req.GetBody()
	if err != nil {
		return
	}
	b, err := io.ReadAll(body)
	if err != nil {
		return
	}
	r.mu.Lock()
	r.frames = append(r.frames, frame{shard: shard, body: b})
	r.mu.Unlock()
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// legBody counts reply bytes and records the leg span on Close.
type legBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	done bool
}

func (b *legBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.m += n
	return n, err
}

func (b *legBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.s.end = time.Now()
		b.rec.add(b.s)
	}
	return err
}

// journalSpans is the ingest.Journal handed to SetJournal in the traced
// run: persist.Manager.Append, timed.
type journalSpans struct {
	mgr   *persist.Manager
	rec   *recorder
	shard int
}

func (j journalSpans) Append(gen uint64, events []ingest.Event, uploads []string) error {
	start := time.Now()
	err := j.mgr.Append(gen, events, uploads)
	j.rec.add(span{name: "persist.wal_append", parent: "server/internal/ingest", shard: j.shard, start: start, end: time.Now()})
	return err
}

// spanJSON is the on-disk form of a span: times in nanoseconds since
// the run's origin.
type spanJSON struct {
	Name   string `json:"name"`
	Parent string `json:"parent"`
	RID    string `json:"rid,omitempty"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
	M      int    `json:"m,omitempty"`
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, spans []span, origin time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		s := &spans[i]
		if err := enc.Encode(spanJSON{Name: s.name, Parent: s.parent, RID: s.rid, Shard: s.shard,
			Start: s.start.Sub(origin).Nanoseconds(), End: s.end.Sub(origin).Nanoseconds(), N: s.n, M: s.m}); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
