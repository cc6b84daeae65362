package synth_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"viewstags/internal/alexa"
	"viewstags/internal/pipeline"
	"viewstags/internal/synth"
)

// The golden digests pin the synthetic catalog bit for bit. Shard
// daemons, cmd/loadgen and the scenario engine each regenerate the
// catalog from (videos, seed) and rely on getting the same ids, tag sets
// and view fields; a generator change that moves any of these digests
// changes every catalog and breaks that contract.
var goldenCatalogs = []struct {
	videos int
	seed   uint64
	digest string
}{
	{20000, 20110301, "143db24183c5fd28d5a362c22ac5951e09d891480e1959871fb229088c8dfbfc"},
	{3000, 7, "006b1013f399108d3048c6b976f1aca2e1896e816d253939e5fec7608d8d77bc"},
	{500, 42, "bc2eb2f0881dbb6cfd7d9018eeccc51340f1eab6cdb0f028d8ec38cc6bc57893"},
}

// goldenAnalysis is the digest of FromSynthetic(20000, 20110301)'s
// filtered records, per-record reconstructed fields and per-tag
// aggregates (see analysisDigest).
const goldenAnalysis = "f0fe3815900af097d33aa97175aeabebc7082ce411d38a617ebe342f8faf1f06"

// goldenProcs are the GOMAXPROCS values every digest is checked under, so
// the result cannot depend on how the work is scheduled.
var goldenProcs = []int{1, 2, 4}

type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.h.Write(b[:])
}

func (d *digest) i64(x int64)   { d.u64(uint64(x)) }
func (d *digest) f64(x float64) { d.u64(math.Float64bits(x)) }
func (d *digest) str(s string)  { d.u64(uint64(len(s))); d.h.Write([]byte(s)) }
func (d *digest) sum() string   { return hex.EncodeToString(d.h.Sum(nil)) }

// size hashes a slice's length and whether it is nil.
func (d *digest) size(n int, isNil bool) {
	if isNil {
		d.u64(1)
	} else {
		d.u64(0)
	}
	d.u64(uint64(n))
}

// catalogDigest hashes every field of every video, including whether the
// optional slices are nil.
func catalogDigest(cat *synth.Catalog) string {
	d := newDigest()
	d.u64(uint64(len(cat.Videos)))
	for i := range cat.Videos {
		v := &cat.Videos[i]
		d.i64(int64(v.Index))
		d.str(v.ID)
		d.str(v.Title)
		d.i64(int64(v.Upload))
		d.str(v.Category)
		d.size(len(v.TagIDs), v.TagIDs == nil)
		for _, t := range v.TagIDs {
			d.i64(int64(t))
		}
		d.i64(v.TotalViews)
		d.size(len(v.TrueViews), v.TrueViews == nil)
		for _, x := range v.TrueViews {
			d.i64(x)
		}
		d.size(len(v.PopVector), v.PopVector == nil)
		for _, x := range v.PopVector {
			d.i64(int64(x))
		}
		d.i64(int64(v.PopState))
	}
	return d.sum()
}

// analysisDigest hashes the pipeline's kept records, each record's
// reconstructed view field and every tag's aggregate (videos, total
// views and the per-country view field) as float bits.
func analysisDigest(res *pipeline.Result) string {
	d := newDigest()
	an := res.Analysis
	d.u64(uint64(an.N()))
	d.u64(uint64(an.Skipped()))
	for i := 0; i < an.N(); i++ {
		r := an.Record(i)
		d.str(r.VideoID)
		d.str(r.Title)
		d.str(r.Uploader)
		d.str(r.Category)
		d.i64(r.TotalViews)
		d.u64(uint64(len(r.Tags)))
		for _, t := range r.Tags {
			d.str(t)
		}
		d.u64(uint64(len(r.PopCodes)))
		for j, c := range r.PopCodes {
			d.str(c)
			d.i64(int64(r.PopValues[j]))
		}
		f := an.VideoField(i)
		d.size(len(f), f == nil)
		for _, x := range f {
			d.f64(x)
		}
	}
	for _, name := range an.TagNames() {
		p, _ := an.TagProfile(name)
		d.str(name)
		d.i64(int64(p.Videos))
		d.f64(p.TotalViews)
		for _, x := range p.Views {
			d.f64(x)
		}
	}
	return d.sum()
}

// withProcs runs fn once per goldenProcs value, restoring GOMAXPROCS.
func withProcs(t *testing.T, fn func(t *testing.T, procs int)) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range goldenProcs {
		runtime.GOMAXPROCS(p)
		fn(t, p)
	}
}

func TestGenerateGoldenDigest(t *testing.T) {
	withProcs(t, func(t *testing.T, procs int) {
		for _, g := range goldenCatalogs {
			cfg := synth.DefaultConfig(g.videos)
			cfg.Seed = g.seed
			cat, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := catalogDigest(cat); got != g.digest {
				t.Errorf("GOMAXPROCS=%d Generate(%d, %d) digest %s, want %s", procs, g.videos, g.seed, got, g.digest)
			}
		}
	})
}

func TestFromSyntheticGoldenDigest(t *testing.T) {
	withProcs(t, func(t *testing.T, procs int) {
		res, err := pipeline.FromSynthetic(20000, 20110301, alexa.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got := analysisDigest(res); got != goldenAnalysis {
			t.Errorf("GOMAXPROCS=%d FromSynthetic(20000, 20110301) analysis digest %s, want %s", procs, got, goldenAnalysis)
		}
	})
}
