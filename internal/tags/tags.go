// Package tags models the YouTube tag ecosystem the paper measures: a
// Zipf-distributed vocabulary in which each tag carries a latent
// geographic affinity. The affinity classes mirror the paper's
// observation (§3, Figs. 2–3): some tags are viewed mainly in particular
// countries ("favela" → Brazil), some cluster on a language community,
// and some follow the world distribution of YouTube users ("pop").
//
// The vocabulary is the generative ground truth of the reproduction: the
// synthetic catalog builder (internal/synth) samples each video's tag set
// and geographic view field from it, and the analysis pipeline
// (internal/tagviews) then has to re-discover these affinities from the
// quantized popularity vectors alone — exactly the paper's task.
package tags

import (
	"fmt"
	"sort"

	"viewstags/internal/geo"
	"viewstags/internal/xrand"
)

// Class is a tag's latent geographic affinity class.
type Class int

// Affinity classes. Enums start at one so the zero value is invalid.
const (
	ClassInvalid  Class = iota
	ClassLocal          // anchored on a single country
	ClassRegional       // anchored on a language cluster
	ClassGlobal         // follows the global traffic prior
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassLocal:
		return "local"
	case ClassRegional:
		return "regional"
	case ClassGlobal:
		return "global"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Tag is one vocabulary entry. Affinity data is stored sparsely (anchor +
// background mass) so that paper-scale vocabularies (705k tags) do not
// need a dense tags×countries matrix.
type Tag struct {
	Name     string
	Class    Class
	Anchor   geo.CountryID // anchor country (local) or cluster exemplar (regional)
	Language string        // language cluster key for regional tags
	// AnchorMass is the fraction of the tag's affinity concentrated on
	// the anchor (local) or cluster (regional); the remainder follows the
	// global traffic prior. Global tags have AnchorMass 0.
	AnchorMass float64
}

// Config parameterizes vocabulary generation. DefaultConfig gives the
// values DESIGN.md fixes for the reproduction.
type Config struct {
	Size int // number of tags

	ZipfExponent float64 // tag usage frequency skew

	// Class mix for tail tags; head ranks are biased toward global (the
	// most used tags — music, funny, pop — are globally consumed).
	LocalFrac    float64
	RegionalFrac float64
	// GlobalFrac is the remainder.

	// HeadGlobalBoost is the probability that one of the first
	// HeadGlobalRanks tags is forced global regardless of the mix.
	HeadGlobalBoost float64
	HeadGlobalRanks int

	// Anchor concentration: Beta-ish mass drawn uniformly in
	// [AnchorMassLo, AnchorMassHi].
	AnchorMassLo float64
	AnchorMassHi float64
}

// DefaultConfig returns the standard vocabulary configuration.
func DefaultConfig(size int) Config {
	return Config{
		Size:            size,
		ZipfExponent:    1.02, // tag usage is near-Zipf(1) in tagging studies [Geisler & Burns 2007]
		LocalFrac:       0.55,
		RegionalFrac:    0.30,
		HeadGlobalBoost: 0.75,
		HeadGlobalRanks: 128,
		AnchorMassLo:    0.60,
		AnchorMassHi:    0.95,
	}
}

// Vocabulary is an immutable generated tag vocabulary with lookup and
// sampling indexes.
type Vocabulary struct {
	world  *geo.World
	prior  []float64                  // world.Traffic(), cached for AffinityInto
	peers  map[string][]geo.CountryID // world.LanguagePeers per language, likewise
	tags   []Tag
	byName map[string]int
	freq   *xrand.Zipf // usage frequency over ranks == indices

	// Sampling indexes: tags grouped by anchor country / language, with
	// intra-group categorical samplers weighted by usage frequency.
	byAnchor    map[geo.CountryID][]int
	byLanguage  map[string][]int
	anchorCat   map[geo.CountryID]*xrand.Categorical
	languageCat map[string]*xrand.Categorical
	globalIdx   []int
	globalCat   *xrand.Categorical
}

// curatedTag pins a real tag name from the paper's figures (and a few
// companions) to a fixed class and anchor so figures and examples can
// refer to them by name.
type curatedTag struct {
	name   string
	class  Class
	anchor string // ISO code; anchor country for local, exemplar for regional
	lang   string
	mass   float64
}

// curated returns the pinned head of the vocabulary. Order matters: it
// defines usage-frequency ranks 0..len-1, and "pop" is placed so that it
// plausibly lands as one of the most-viewed tags (the paper reports it as
// the second most viewed).
func curated() []curatedTag {
	return []curatedTag{
		{name: "music", class: ClassGlobal},
		{name: "pop", class: ClassGlobal},
		{name: "funny", class: ClassGlobal},
		{name: "live", class: ClassGlobal},
		{name: "video", class: ClassGlobal},
		{name: "2011", class: ClassGlobal},
		{name: "news", class: ClassGlobal},
		{name: "dance", class: ClassGlobal},
		{name: "rock", class: ClassGlobal},
		{name: "hd", class: ClassGlobal},
		{name: "futebol", class: ClassRegional, anchor: "BR", lang: "pt", mass: 0.85},
		{name: "anime", class: ClassRegional, anchor: "JP", lang: "ja", mass: 0.7},
		{name: "kpop", class: ClassRegional, anchor: "KR", lang: "ko", mass: 0.8},
		{name: "telenovela", class: ClassRegional, anchor: "MX", lang: "es", mass: 0.85},
		{name: "chanson", class: ClassRegional, anchor: "FR", lang: "fr", mass: 0.85},
		{name: "schlager", class: ClassRegional, anchor: "DE", lang: "de", mass: 0.85},
		{name: "favela", class: ClassLocal, anchor: "BR", mass: 0.95},
		{name: "samba", class: ClassLocal, anchor: "BR", mass: 0.85},
		{name: "carnaval", class: ClassLocal, anchor: "BR", mass: 0.80},
		{name: "cricket", class: ClassLocal, anchor: "IN", mass: 0.80},
		{name: "bollywood", class: ClassLocal, anchor: "IN", mass: 0.85},
		{name: "diwali", class: ClassLocal, anchor: "IN", mass: 0.88},
		{name: "sumo", class: ClassLocal, anchor: "JP", mass: 0.90},
		{name: "manga", class: ClassRegional, anchor: "JP", lang: "ja", mass: 0.70},
		{name: "mariachi", class: ClassLocal, anchor: "MX", mass: 0.88},
		{name: "tango", class: ClassLocal, anchor: "AR", mass: 0.85},
		{name: "flamenco", class: ClassLocal, anchor: "ES", mass: 0.85},
		{name: "hurling", class: ClassLocal, anchor: "IE", mass: 0.93},
		{name: "haka", class: ClassLocal, anchor: "NZ", mass: 0.90},
		{name: "fado", class: ClassLocal, anchor: "PT", mass: 0.90},
		{name: "oktoberfest", class: ClassLocal, anchor: "DE", mass: 0.82},
		{name: "nollywood", class: ClassLocal, anchor: "NG", mass: 0.90},
		{name: "balalaika", class: ClassLocal, anchor: "RU", mass: 0.90},
		{name: "muaythai", class: ClassLocal, anchor: "TH", mass: 0.85},
		{name: "dangdut", class: ClassLocal, anchor: "ID", mass: 0.92},
		{name: "cumbia", class: ClassRegional, anchor: "CO", lang: "es", mass: 0.80},
		{name: "rai", class: ClassRegional, anchor: "MA", lang: "ar", mass: 0.80},
	}
}

// NewVocabulary generates a vocabulary of cfg.Size tags over the given
// world, deterministically from src. It returns an error for a
// non-positive size or a size smaller than the curated head.
func NewVocabulary(world *geo.World, src *xrand.Source, cfg Config) (*Vocabulary, error) {
	head := curated()
	if cfg.Size < len(head) {
		return nil, fmt.Errorf("tags: vocabulary size %d smaller than curated head %d", cfg.Size, len(head))
	}
	if cfg.ZipfExponent < 0 {
		return nil, fmt.Errorf("tags: negative Zipf exponent %v", cfg.ZipfExponent)
	}
	if cfg.LocalFrac < 0 || cfg.RegionalFrac < 0 || cfg.LocalFrac+cfg.RegionalFrac > 1 {
		return nil, fmt.Errorf("tags: invalid class mix local=%v regional=%v", cfg.LocalFrac, cfg.RegionalFrac)
	}

	v := &Vocabulary{
		world:  world,
		prior:  world.Traffic(),
		peers:  make(map[string][]geo.CountryID),
		tags:   make([]Tag, 0, cfg.Size),
		byName: make(map[string]int, cfg.Size),
	}
	classSrc := src.Fork("class")
	nameSrc := src.Fork("name")
	anchorSrc := src.Fork("anchor")

	countryCat := xrand.NewCategorical(anchorSrc.Fork("country"), world.Traffic())

	for _, c := range head {
		t := Tag{Name: c.name, Class: c.class, AnchorMass: c.mass, Language: c.lang}
		if c.anchor != "" {
			id, ok := world.ByCode(c.anchor)
			if !ok {
				return nil, fmt.Errorf("tags: curated tag %q anchored at unknown country %q", c.name, c.anchor)
			}
			t.Anchor = id
			if t.Language == "" {
				t.Language = world.Country(id).Language
			}
		}
		v.append(t)
	}

	gen := newNameGen(nameSrc)
	for len(v.tags) < cfg.Size {
		rank := len(v.tags)
		class := sampleClass(classSrc, cfg, rank)
		t := Tag{Class: class}
		switch class {
		case ClassGlobal:
			// No anchor; follows the prior.
		case ClassRegional:
			// Anchor on a language cluster, exemplified by a
			// traffic-weighted member country.
			anchor := geo.CountryID(countryCat.Draw())
			t.Anchor = anchor
			t.Language = world.Country(anchor).Language
			t.AnchorMass = cfg.AnchorMassLo + (cfg.AnchorMassHi-cfg.AnchorMassLo)*anchorSrc.Float64()
		case ClassLocal:
			anchor := geo.CountryID(countryCat.Draw())
			t.Anchor = anchor
			t.Language = world.Country(anchor).Language
			t.AnchorMass = cfg.AnchorMassLo + (cfg.AnchorMassHi-cfg.AnchorMassLo)*anchorSrc.Float64()
		}
		t.Name = gen.unique(v.byName, t.Language)
		v.append(t)
	}

	for _, lang := range world.Languages() {
		v.peers[lang] = world.LanguagePeers(lang)
	}
	v.freq = xrand.NewZipf(src.Fork("freq"), cfg.ZipfExponent, len(v.tags))
	v.buildIndexes(src.Fork("index"))
	return v, nil
}

func (v *Vocabulary) append(t Tag) {
	v.byName[t.Name] = len(v.tags)
	v.tags = append(v.tags, t)
}

func sampleClass(src *xrand.Source, cfg Config, rank int) Class {
	if rank < cfg.HeadGlobalRanks && src.Bernoulli(cfg.HeadGlobalBoost) {
		return ClassGlobal
	}
	u := src.Float64()
	switch {
	case u < cfg.LocalFrac:
		return ClassLocal
	case u < cfg.LocalFrac+cfg.RegionalFrac:
		return ClassRegional
	default:
		return ClassGlobal
	}
}

func (v *Vocabulary) buildIndexes(src *xrand.Source) {
	v.byAnchor = make(map[geo.CountryID][]int)
	v.byLanguage = make(map[string][]int)
	for i, t := range v.tags {
		switch t.Class {
		case ClassLocal:
			v.byAnchor[t.Anchor] = append(v.byAnchor[t.Anchor], i)
		case ClassRegional:
			v.byLanguage[t.Language] = append(v.byLanguage[t.Language], i)
		case ClassGlobal:
			v.globalIdx = append(v.globalIdx, i)
		}
	}
	v.anchorCat = make(map[geo.CountryID]*xrand.Categorical, len(v.byAnchor))
	for c, idxs := range v.byAnchor {
		v.anchorCat[c] = xrand.NewCategorical(src.Fork("anchor/"+v.world.Country(c).Code), v.freqWeights(idxs))
	}
	v.languageCat = make(map[string]*xrand.Categorical, len(v.byLanguage))
	for lang, idxs := range v.byLanguage {
		v.languageCat[lang] = xrand.NewCategorical(src.Fork("lang/"+lang), v.freqWeights(idxs))
	}
	if len(v.globalIdx) > 0 {
		v.globalCat = xrand.NewCategorical(src.Fork("global"), v.freqWeights(v.globalIdx))
	}
}

func (v *Vocabulary) freqWeights(idxs []int) []float64 {
	ws := make([]float64, len(idxs))
	for j, i := range idxs {
		ws[j] = v.freq.Prob(i)
	}
	return ws
}

// N returns the vocabulary size.
func (v *Vocabulary) N() int { return len(v.tags) }

// Tag returns the i-th tag record.
func (v *Vocabulary) Tag(i int) Tag { return v.tags[i] }

// Name returns the i-th tag's name.
func (v *Vocabulary) Name(i int) string { return v.tags[i].Name }

// ByName resolves a (normalized) tag name to its vocabulary index.
func (v *Vocabulary) ByName(name string) (int, bool) {
	i, ok := v.byName[name]
	return i, ok
}

// UsageProb returns the prior usage probability of tag i (Zipf mass).
func (v *Vocabulary) UsageProb(i int) float64 { return v.freq.Prob(i) }

// World returns the world the vocabulary was generated over.
func (v *Vocabulary) World() *geo.World { return v.world }

// Affinity returns tag i's ground-truth geographic affinity as a dense
// normalized distribution over countries: AnchorMass on the anchor (local)
// or spread over the language cluster proportionally to traffic
// (regional), with the remaining mass following the global traffic prior.
func (v *Vocabulary) Affinity(i int) []float64 {
	out := make([]float64, len(v.prior))
	v.AffinityInto(i, out)
	return out
}

// AffinityInto writes tag i's affinity (see Affinity) into out, which
// must have one entry per country. It does not allocate and is safe for
// concurrent use.
func (v *Vocabulary) AffinityInto(i int, out []float64) {
	t := v.tags[i]
	prior := v.prior
	switch t.Class {
	case ClassLocal:
		for c := range out {
			out[c] = (1 - t.AnchorMass) * prior[c]
		}
		out[t.Anchor] += t.AnchorMass
	case ClassRegional:
		peers := v.peers[t.Language]
		var clusterTraffic float64
		for _, p := range peers {
			clusterTraffic += prior[p]
		}
		for c := range out {
			out[c] = (1 - t.AnchorMass) * prior[c]
		}
		if clusterTraffic > 0 {
			for _, p := range peers {
				out[p] += t.AnchorMass * prior[p] / clusterTraffic
			}
		} else {
			out[t.Anchor] += t.AnchorMass
		}
	default: // global
		copy(out, prior)
	}
}

// TagSetConfig controls per-video tag-set sampling.
type TagSetConfig struct {
	MeanTags     int     // mean tag-set size (geometric), >= 1
	MaxTags      int     // hard cap (YouTube's 2011 limit was ~120 chars of tags; we cap count)
	LocalBias    float64 // probability that a draw favors upload-locale tags
	RegionalBias float64 // probability that a draw favors same-language tags
}

// DefaultTagSetConfig returns the standard tag-set sampling parameters.
func DefaultTagSetConfig() TagSetConfig {
	return TagSetConfig{MeanTags: 9, MaxTags: 30, LocalBias: 0.35, RegionalBias: 0.25}
}

// SampleTagSet draws a tag set for a video uploaded from the given
// country: a geometric-size set whose members are biased toward tags
// anchored at the uploader's country and language, the rest drawn from
// the global pool. The result is deduplicated, non-empty, and at most
// cfg.MaxTags long.
func (v *Vocabulary) SampleTagSet(src *xrand.Source, upload geo.CountryID, cfg TagSetConfig) []int {
	if cfg.MeanTags < 1 {
		cfg.MeanTags = 1
	}
	if cfg.MaxTags < 1 {
		cfg.MaxTags = 1
	}
	// Geometric size with mean cfg.MeanTags, clamped to [1, MaxTags].
	size := 1
	p := 1 / float64(cfg.MeanTags)
	for size < cfg.MaxTags && !src.Bernoulli(p) {
		size++
	}
	lang := v.world.Country(upload).Language
	seen := make(map[int]bool, size)
	out := make([]int, 0, size)
	// Bound the attempts so tiny vocabularies cannot loop forever.
	for attempts := 0; len(out) < size && attempts < 20*size; attempts++ {
		var idx int
		u := src.Float64()
		switch {
		case u < cfg.LocalBias && v.anchorCat[upload] != nil:
			idx = v.byAnchor[upload][v.anchorCat[upload].Draw()]
		case u < cfg.LocalBias+cfg.RegionalBias && v.languageCat[lang] != nil:
			idx = v.byLanguage[lang][v.languageCat[lang].Draw()]
		case v.globalCat != nil:
			idx = v.globalIdx[v.globalCat.Draw()]
		default:
			idx = v.freqSample(src)
		}
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	if len(out) == 0 {
		out = append(out, v.freqSample(src))
	}
	v.sortTopicalFirst(out, upload)
	return out
}

// sortTopicalFirst stable-sorts a tag set so the most geographically
// specific tags lead: local tags anchored at the uploader's country,
// then other local tags, regional, and finally global tags. This mirrors
// how uploaders front-load topical tags, and the synthetic view model
// weights leading tags more — together they encode the paper's premise
// that a video's topical tags dominate its viewing geography.
func (v *Vocabulary) sortTopicalFirst(set []int, upload geo.CountryID) {
	rank := func(idx int) int {
		t := v.tags[idx]
		switch t.Class {
		case ClassLocal:
			if t.Anchor == upload {
				return 0
			}
			return 1
		case ClassRegional:
			return 2
		default:
			return 3
		}
	}
	sort.SliceStable(set, func(a, b int) bool { return rank(set[a]) < rank(set[b]) })
}

// freqSample draws a tag by raw usage frequency, ignoring geography. The
// draw consumes the caller's stream (not the Zipf sampler's own) so each
// consumer stays independently deterministic.
func (v *Vocabulary) freqSample(src *xrand.Source) int {
	u := src.Float64()
	lo, hi := 0, v.freq.N()-1
	for lo < hi {
		mid := (lo + hi) / 2
		if v.freq.CDF(mid) < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
