package synth

import (
	"math"
	"testing"
	"testing/quick"

	"viewstags/internal/dist"
	"viewstags/internal/mapchart"
)

// smallCatalog memoizes a 4000-video catalog across tests in this
// package; generation is deterministic so sharing is safe for read-only
// assertions.
var smallCatalog *Catalog

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	if smallCatalog == nil {
		cat, err := Generate(DefaultConfig(4000))
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		smallCatalog = cat
	}
	return smallCatalog
}

func TestVideoIDShape(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 50000; i++ {
		id := VideoID(1, i)
		if len(id) != 11 {
			t.Fatalf("id %q has length %d", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q at %d", id, i)
		}
		seen[id] = true
	}
}

func TestVideoIDAlphabetProperty(t *testing.T) {
	f := func(seed uint64, idx uint16) bool {
		id := VideoID(seed, int(idx))
		if len(id) != 11 {
			return false
		}
		for i := 0; i < len(id); i++ {
			found := false
			for j := 0; j < len(idAlphabet); j++ {
				if id[i] == idAlphabet[j] {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrueViewsSumToTotal(t *testing.T) {
	cat := testCatalog(t)
	for i := range cat.Videos {
		v := &cat.Videos[i]
		var sum int64
		for _, n := range v.TrueViews {
			if n < 0 {
				t.Fatalf("video %d has negative country views", i)
			}
			sum += n
		}
		if sum != v.TotalViews {
			t.Fatalf("video %d: country views sum %d != total %d", i, sum, v.TotalViews)
		}
	}
}

func TestPathologyRatesApproximate(t *testing.T) {
	cat := testCatalog(t)
	s := cat.Stats()
	n := float64(s.Videos)
	cfg := cat.Config

	untagged := float64(s.Untagged) / n
	if math.Abs(untagged-cfg.UntaggedRate) > 0.006 {
		t.Errorf("untagged rate %v, want ~%v", untagged, cfg.UntaggedRate)
	}
	badPop := float64(s.PopEmpty+s.PopCorrupt) / n
	wantBad := cfg.PopEmptyRate + cfg.PopCorruptRate
	if math.Abs(badPop-wantBad) > 0.03 {
		t.Errorf("bad pop-vector rate %v, want ~%v", badPop, wantBad)
	}
	if s.PopOK+s.PopEmpty+s.PopCorrupt != s.Videos {
		t.Error("pop states do not partition the catalog")
	}
}

func TestPopVectorConsistency(t *testing.T) {
	cat := testCatalog(t)
	for i := range cat.Videos {
		v := &cat.Videos[i]
		switch v.PopState {
		case PopStateOK:
			if len(v.PopVector) != cat.World.N() {
				t.Fatalf("video %d: ok vector has length %d", i, len(v.PopVector))
			}
			maxV := 0
			for _, x := range v.PopVector {
				if x < 0 || x > mapchart.MaxIntensity {
					t.Fatalf("video %d: intensity %d out of range", i, x)
				}
				if x > maxV {
					maxV = x
				}
			}
			if v.TotalViews > 0 && maxV != mapchart.MaxIntensity {
				t.Fatalf("video %d: max intensity %d, want %d (K(v) normalization)", i, maxV, mapchart.MaxIntensity)
			}
		case PopStateEmpty:
			if v.PopVector != nil {
				t.Fatalf("video %d: empty state with vector", i)
			}
		case PopStateCorrupt:
			for _, x := range v.PopVector {
				if x != 0 {
					t.Fatalf("video %d: corrupt vector carries data", i)
				}
			}
		default:
			t.Fatalf("video %d: unset pop state", i)
		}
	}
}

func TestViewsHeavyTailed(t *testing.T) {
	cat := testCatalog(t)
	top := cat.TopByViews(len(cat.Videos))
	head := cat.Videos[top[0]].TotalViews
	median := cat.Videos[top[len(top)/2]].TotalViews
	if head < 100*median {
		t.Fatalf("head views %d not >> median %d; view model lost its tail", head, median)
	}
	if head > cat.Config.ViewsMax {
		t.Fatalf("head views %d exceed configured max", head)
	}
	for _, i := range top {
		if cat.Videos[i].TotalViews < cat.Config.ViewsMin {
			t.Fatalf("video below configured min views")
		}
	}
}

func TestTopByViewsSorted(t *testing.T) {
	cat := testCatalog(t)
	top := cat.TopByViews(100)
	if len(top) != 100 {
		t.Fatalf("TopByViews returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if cat.Videos[top[i-1]].TotalViews < cat.Videos[top[i]].TotalViews {
			t.Fatal("TopByViews not descending")
		}
	}
}

func TestTopInCountrySorted(t *testing.T) {
	cat := testCatalog(t)
	br := cat.World.MustByCode("BR")
	top := cat.TopInCountry(br, 10)
	for i := 1; i < len(top); i++ {
		if cat.Videos[top[i-1]].TrueViews[br] < cat.Videos[top[i]].TrueViews[br] {
			t.Fatal("TopInCountry not descending")
		}
	}
	// The #1 Brazilian video should have substantial Brazilian views.
	if cat.Videos[top[0]].TrueViews[br] == 0 {
		t.Fatal("top Brazilian video has zero BR views")
	}
}

func TestByID(t *testing.T) {
	cat := testCatalog(t)
	want := &cat.Videos[42]
	got, ok := cat.ByID(want.ID)
	if !ok || got.Index != 42 {
		t.Fatalf("ByID(%q) = %v,%v", want.ID, got, ok)
	}
	if _, ok := cat.ByID("AAAAAAAAAAA"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestUploadGravityShapesViews(t *testing.T) {
	cat := testCatalog(t)
	br := cat.World.MustByCode("BR")
	// Average BR view share for BR uploads vs US uploads.
	var brShare, usShare, brN, usN float64
	us := cat.World.MustByCode("US")
	for i := range cat.Videos {
		v := &cat.Videos[i]
		if v.TotalViews == 0 {
			continue
		}
		share := float64(v.TrueViews[br]) / float64(v.TotalViews)
		switch v.Upload {
		case br:
			brShare += share
			brN++
		case us:
			usShare += share
			usN++
		}
	}
	if brN == 0 || usN == 0 {
		t.Skip("catalog too small to compare upload countries")
	}
	if brShare/brN < 3*(usShare/usN) {
		t.Fatalf("BR uploads BR-share %v not >> US uploads BR-share %v", brShare/brN, usShare/usN)
	}
}

func TestTagAffinityShapesViews(t *testing.T) {
	cat := testCatalog(t)
	fi, ok := cat.Vocab.ByName("favela")
	if !ok {
		t.Fatal("favela missing from vocabulary")
	}
	br := cat.World.MustByCode("BR")
	tagIdx := cat.TagIndex()
	vids := tagIdx[fi]
	if len(vids) == 0 {
		t.Skip("no favela-tagged videos at this scale")
	}
	var withTag float64
	for _, i := range vids {
		v := &cat.Videos[i]
		withTag += float64(v.TrueViews[br]) / float64(v.TotalViews)
	}
	withTag /= float64(len(vids))
	// Catalog-wide average BR share is ~ the traffic prior (a few %).
	prior := cat.World.TrafficOf(br)
	if withTag < 4*prior {
		t.Fatalf("favela videos BR share %v not >> prior %v", withTag, prior)
	}
}

func TestCatalogStatsConsistency(t *testing.T) {
	cat := testCatalog(t)
	s := cat.Stats()
	if s.Videos != len(cat.Videos) {
		t.Fatal("stats video count mismatch")
	}
	if s.TotalViews != cat.TotalViews() {
		t.Fatal("stats view total mismatch")
	}
	if s.UniqueTags == 0 || s.UniqueTags > cat.Vocab.N() {
		t.Fatalf("unique tags %d out of range", s.UniqueTags)
	}
}

func TestGenerateConfigErrors(t *testing.T) {
	bad := func(mutate func(*Config)) Config {
		cfg := DefaultConfig(100)
		mutate(&cfg)
		return cfg
	}
	cases := map[string]Config{
		"zero videos":    bad(func(c *Config) { c.Videos = 0 }),
		"alpha <= 1":     bad(func(c *Config) { c.ViewsAlpha = 1 }),
		"bad view range": bad(func(c *Config) { c.ViewsMax = c.ViewsMin }),
		"zero weights":   bad(func(c *Config) { c.WeightPrior, c.WeightGravity, c.WeightTags = 0, 0, 0 }),
		"bad rate":       bad(func(c *Config) { c.UntaggedRate = 1.5 }),
		// Mixture weights and jitter must be finite and non-negative.
		"untagged, no prior or gravity": bad(func(c *Config) { c.WeightPrior, c.WeightGravity = 0, 0 }),
		"NaN weight":                    bad(func(c *Config) { c.WeightTags = math.NaN() }),
		"negative weight":               bad(func(c *Config) { c.WeightGravity = -0.1 }),
		"NaN jitter":                    bad(func(c *Config) { c.JitterConcentration = math.NaN() }),
		"infinite jitter":               bad(func(c *Config) { c.JitterConcentration = math.Inf(1) }),
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Generate(cfg); err == nil {
				t.Fatalf("Generate accepted %s", name)
			}
		})
	}
}

func TestMixtureUntaggedFallsBackToPriorGravity(t *testing.T) {
	cat := testCatalog(t)
	// Untagged videos must still have a valid view field.
	for i := range cat.Videos {
		v := &cat.Videos[i]
		if len(v.TagIDs) != 0 {
			continue
		}
		if dist.Sum(float64Slice(v.TrueViews)) == 0 && v.TotalViews > 0 {
			t.Fatalf("untagged video %d lost its views", i)
		}
	}
}

func float64Slice(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func TestBoundedParetoRange(t *testing.T) {
	cat := testCatalog(t)
	_ = cat
	f := func(u uint32) bool {
		src := newTestSource(uint64(u))
		v := boundedPareto(src, 1.75, 50, 1000000)
		return v >= 50 && v <= 1000000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTitlesNonEmpty(t *testing.T) {
	cat := testCatalog(t)
	for i := range cat.Videos {
		if cat.Videos[i].Title == "" {
			t.Fatalf("video %d has empty title", i)
		}
	}
}

// BenchmarkGenerate measures catalog synthesis at the serving tier's
// default size — the bulk of a shard daemon's boot.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
