// Package synth generates the synthetic YouTube catalog that stands in
// for the paper's unrecoverable March-2011 crawl (see DESIGN.md §2).
//
// Every video gets: a YouTube-shaped 11-character id, a title, an upload
// country, a category, a tag set drawn from the internal/tags vocabulary,
// a heavy-tailed total view count, and a ground-truth per-country view
// field sampled from a mixture of (a) the global traffic prior, (b) an
// upload-country gravity component, and (c) the video's tags' affinities.
// From the ground truth the generator derives the quantized Map-Chart
// popularity vector pop(v) — the only geographic signal the paper's
// pipeline gets to see — and injects the two data pathologies the paper
// filters (§2): videos with no tags, and videos with an empty or corrupt
// popularity vector.
package synth

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"viewstags/internal/geo"
	"viewstags/internal/mapchart"
	"viewstags/internal/tags"
	"viewstags/internal/xrand"
)

// PopVectorState describes the health of a video's scraped popularity
// vector, mirroring the paper's filtering taxonomy.
type PopVectorState int

// Popularity-vector states. Enums start at one so the zero value is
// detectably unset.
const (
	PopStateInvalid PopVectorState = iota
	PopStateOK                     // complete, decodable vector
	PopStateEmpty                  // map chart absent (no data)
	PopStateCorrupt                // undecodable / wrong length
)

// String returns the state name.
func (s PopVectorState) String() string {
	switch s {
	case PopStateOK:
		return "ok"
	case PopStateEmpty:
		return "empty"
	case PopStateCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("PopVectorState(%d)", int(s))
	}
}

// Video is one ground-truth catalog entry.
type Video struct {
	Index      int    // dense catalog index
	ID         string // YouTube-shaped 11-char id
	Title      string
	Upload     geo.CountryID
	Category   string
	TagIDs     []int // vocabulary indices; empty for the untagged pathology
	TotalViews int64

	// TrueViews is the ground-truth per-country view field (sums to
	// TotalViews). The analysis pipeline never reads it; it exists to
	// score reconstruction quality.
	TrueViews []int64

	// PopVector is the quantized 0..61 Map-Chart vector derived from
	// TrueViews, or nil when PopState != PopStateOK.
	PopVector []int
	PopState  PopVectorState
}

// TagNames resolves the video's tag ids against the vocabulary.
func (v *Video) TagNames(voc *tags.Vocabulary) []string {
	out := make([]string, len(v.TagIDs))
	for i, id := range v.TagIDs {
		out[i] = voc.Name(id)
	}
	return out
}

// Config parameterizes catalog generation. The default values are
// calibrated so the filtered-dataset proportions track the paper's §2
// statistics (see TestT1FilteringRatios and EXPERIMENTS.md).
type Config struct {
	Videos    int    // catalog size before filtering
	VocabSize int    // tag vocabulary size
	Seed      uint64 // master seed

	// View-volume model: total views per video follow a bounded Pareto
	// with this exponent and range. Alpha near 2 gives the classic UGC
	// skew where the head video draws hundreds of millions of views.
	ViewsAlpha float64
	ViewsMin   int64
	ViewsMax   int64

	// Geographic mixture weights (normalized internally): how much of a
	// video's view field follows the global prior, the uploader's
	// country+language gravity, and the video's tags.
	WeightPrior   float64
	WeightGravity float64
	WeightTags    float64

	// Dirichlet jitter concentration: larger = view fields closer to
	// their mixture mean; smaller = noisier per-video geography.
	JitterConcentration float64

	// TopicDrift is the probability that a video's *topic* anchors on a
	// country other than its upload country (diaspora channels, topic
	// tourism: a US-uploaded K-pop compilation). Drifted videos are what
	// make tags a strictly better geographic marker than uploader
	// location — the paper's conjecture in generative form.
	TopicDrift float64

	// Pathology rates (paper §2: 6,736/1,063,844 untagged ≈ 0.63%;
	// (1,057,108−691,349)/1,063,844 ≈ 34.4% empty-or-corrupt pop vector).
	UntaggedRate   float64
	PopEmptyRate   float64
	PopCorruptRate float64

	TagSet tags.TagSetConfig
}

// DefaultConfig returns a paper-calibrated configuration generating n
// videos.
func DefaultConfig(n int) Config {
	return Config{
		Videos:              n,
		VocabSize:           vocabSizeFor(n),
		Seed:                20110301, // the crawl month
		ViewsAlpha:          1.5,      // bounded-Pareto tail giving ≈2×10⁵ mean views/video, the paper's ratio (1.73e11 / 691,349)
		ViewsMin:            50,
		ViewsMax:            viewsMaxFor(n),
		WeightPrior:         0.15,
		WeightGravity:       0.20,
		WeightTags:          0.65,
		TopicDrift:          0.30,
		JitterConcentration: 120,
		UntaggedRate:        0.00633, // 6,736 / 1,063,844
		PopEmptyRate:        0.24,
		PopCorruptRate:      0.104, // together ≈ 34.4% dropped for bad vectors
		TagSet:              tags.DefaultTagSetConfig(),
	}
}

// vocabSizeFor scales the vocabulary with the catalog the way the paper's
// numbers do: 705,415 unique tags over 1,063,844 videos ≈ 0.66 tags per
// video, floored so small test catalogs still get a usable vocabulary.
func vocabSizeFor(videos int) int {
	v := int(0.66 * float64(videos))
	if v < 400 {
		v = 400
	}
	return v
}

// viewsMaxFor scales the per-video view cap with catalog size so the
// head video's share of total views stays paper-like instead of one
// video dominating a small test catalog. The slope is calibrated on the
// paper itself: at its 1,063,844-video scale, 500·n ≈ 5.3×10⁸ — the view
// count of its most-viewed video (Justin Bieber – Baby) in March 2011.
func viewsMaxFor(videos int) int64 {
	max := int64(500) * int64(videos)
	if max > 800_000_000 {
		return 800_000_000
	}
	if max < 100_000 {
		return 100_000
	}
	return max
}

// Catalog is a fully generated synthetic world.
type Catalog struct {
	World  *geo.World
	Vocab  *tags.Vocabulary
	Videos []Video
	Config Config

	idOnce  sync.Once
	idIndex map[string]int // id→index map, built by the first ByID
}

// youTubeCategories2011 is the category list of the GData API circa 2011.
var youTubeCategories2011 = []string{
	"Music", "Entertainment", "Comedy", "Film", "Sports", "Gaming",
	"News", "People", "Howto", "Education", "Tech", "Autos", "Animals",
	"Travel", "Nonprofit",
}

// Generate builds a catalog from cfg. It is deterministic in cfg: the
// same Config yields the same catalog bit for bit, whatever GOMAXPROCS
// is. Shard daemons, cmd/loadgen and the scenario engine each regenerate
// the catalog from (videos, seed) and rely on that.
func Generate(cfg Config) (*Catalog, error) {
	if cfg.Videos <= 0 {
		return nil, fmt.Errorf("synth: non-positive catalog size %d", cfg.Videos)
	}
	if cfg.ViewsAlpha <= 1 {
		return nil, fmt.Errorf("synth: ViewsAlpha must exceed 1, got %v", cfg.ViewsAlpha)
	}
	if cfg.ViewsMin <= 0 || cfg.ViewsMax <= cfg.ViewsMin {
		return nil, fmt.Errorf("synth: invalid view range [%d, %d]", cfg.ViewsMin, cfg.ViewsMax)
	}
	for _, x := range []float64{cfg.WeightPrior, cfg.WeightGravity, cfg.WeightTags, cfg.JitterConcentration} {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("synth: mixture weight or jitter concentration %v is not a finite non-negative number", x)
		}
	}
	wSum := cfg.WeightPrior + cfg.WeightGravity + cfg.WeightTags
	if wSum <= 0 {
		return nil, fmt.Errorf("synth: mixture weights sum to %v", wSum)
	}
	for _, r := range []float64{cfg.UntaggedRate, cfg.PopEmptyRate, cfg.PopCorruptRate} {
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("synth: pathology rate %v outside [0,1]", r)
		}
	}
	if cfg.UntaggedRate > 0 && cfg.WeightPrior+cfg.WeightGravity <= 0 {
		// An untagged video's geography is prior+gravity alone.
		return nil, fmt.Errorf("synth: untagged videos need WeightPrior+WeightGravity > 0")
	}
	if cfg.TopicDrift < 0 || cfg.TopicDrift > 1 {
		return nil, fmt.Errorf("synth: TopicDrift %v outside [0,1]", cfg.TopicDrift)
	}

	world := geo.DefaultWorld()
	root := xrand.NewSource(cfg.Seed)
	voc, err := tags.NewVocabulary(world, root.Fork("vocab"), tags.DefaultConfig(cfg.VocabSize))
	if err != nil {
		return nil, fmt.Errorf("synth: vocabulary: %w", err)
	}
	cat := &Catalog{World: world, Vocab: voc, Config: cfg, Videos: make([]Video, cfg.Videos)}
	newGenerator(cat, root).run()
	return cat, nil
}

// generator is one Generate call's state. Each random stream is read by
// exactly one goroutine, in catalog order; everything computed from the
// draws is pure and runs on GOMAXPROCS workers. Per video:
//
//	draw   (sequential) upload, category, views, topic, tag set, title pattern, pathology draws
//	mix    (parallel)   mixture mean -> Dirichlet concentration
//	jitter (sequential) Dirichlet draw from the geo stream
//	finish (parallel)   id, title, per-country views, popularity vector
//
// The stages run as a pipeline over chunks of consecutive videos, so the
// two sequential stages overlap each other and the parallel ones.
type generator struct {
	cfg     Config
	cat     *Catalog
	prior   []float64
	gravity [][]float64 // language-gravity vector per upload country

	uploadCat                                  *xrand.Categorical
	viewSrc, tagSrc, pathSrc, titleSrc, geoSrc *xrand.Source
	// spread starts every video's view-spreading stream. It is forked
	// from the geo stream's seed, so every video replays the same child
	// stream; changing that would change every catalog.
	spread xrand.Source

	geo     []float64 // N per video: Dirichlet concentration, then the draw
	pattern []int     // title pattern index per video
	popU    []float64 // per video: the uniform that picks the pop-vector state
}

// chunkVideos is the pipeline's unit of work: large enough to amortize a
// hand-off, small enough that the stages overlap on small catalogs.
const chunkVideos = 256

func newGenerator(cat *Catalog, root *xrand.Source) *generator {
	world, n := cat.World, len(cat.Videos)
	g := &generator{
		cfg:       cat.Config,
		cat:       cat,
		prior:     world.Traffic(),
		gravity:   make([][]float64, world.N()),
		uploadCat: xrand.NewCategorical(root.Fork("upload"), world.Traffic()),
		viewSrc:   root.Fork("views"),
		tagSrc:    root.Fork("tagsets"),
		geoSrc:    root.Fork("geo"),
		pathSrc:   root.Fork("pathology"),
		titleSrc:  root.Fork("title"),
		geo:       make([]float64, n*world.N()),
		pattern:   make([]int, n),
		popU:      make([]float64, n),
	}
	g.spread = *g.geoSrc.Fork("spread")
	for c := range g.gravity {
		g.gravity[c] = gravityVector(world, geo.CountryID(c))
	}
	return g
}

// job is one chunk of work for the parallel stages.
type job struct {
	chunk  int
	finish bool // false: mix
}

func (g *generator) run() {
	n := len(g.cat.Videos)
	chunks := (n + chunkVideos - 1) / chunkVideos
	bounds := func(k int) (int, int) { return k * chunkVideos, min((k+1)*chunkVideos, n) }
	mixed := make([]chan struct{}, chunks) // closed once chunk k is mixed
	for k := range mixed {
		mixed[k] = make(chan struct{})
	}
	// Each chunk is queued twice (mix, then finish): sends never block.
	jobs := make(chan job, 2*chunks)

	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), chunks); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newScratch(g.cat.World.N())
			for j := range jobs {
				lo, hi := bounds(j.chunk)
				for i := lo; i < hi; i++ {
					if j.finish {
						g.finish(i, s)
					} else {
						g.mix(i, s)
					}
				}
				if !j.finish {
					close(mixed[j.chunk])
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < chunks; k++ {
			lo, hi := bounds(k)
			for i := lo; i < hi; i++ {
				g.draw(i)
			}
			jobs <- job{chunk: k}
		}
	}()
	for k := 0; k < chunks; k++ {
		<-mixed[k]
		lo, hi := bounds(k)
		for i := lo; i < hi; i++ {
			g.jitter(i)
		}
		jobs <- job{chunk: k, finish: true}
	}
	close(jobs)
	wg.Wait()
}

// scratch is one worker's reusable buffers.
type scratch struct {
	field, aff, views []float64
	src               xrand.Source
	spread            xrand.Categorical
}

func newScratch(countries int) *scratch {
	return &scratch{
		field: make([]float64, countries),
		aff:   make([]float64, countries),
		views: make([]float64, countries),
	}
}

// row is video i's slice of the concentration/draw table.
func (g *generator) row(i int) []float64 {
	n := len(g.prior)
	return g.geo[i*n : (i+1)*n]
}

// draw makes video i's draws from the upload, title, views, tagsets and
// pathology streams.
func (g *generator) draw(i int) {
	cfg, v := &g.cfg, &g.cat.Videos[i]
	v.Index = i
	v.Upload = geo.CountryID(g.uploadCat.Draw())
	v.Category = youTubeCategories2011[g.titleSrc.Intn(len(youTubeCategories2011))]
	v.TotalViews = boundedPareto(g.viewSrc, cfg.ViewsAlpha, cfg.ViewsMin, cfg.ViewsMax)

	// Topic drift: most videos' topical tags anchor at home, but a
	// fraction anchor elsewhere (the uploader's subject, not their
	// location). Gravity still follows the upload country.
	topic := v.Upload
	if cfg.TopicDrift > 0 && g.tagSrc.Bernoulli(cfg.TopicDrift) {
		topic = geo.CountryID(g.uploadCat.Draw())
	}
	if !g.pathSrc.Bernoulli(cfg.UntaggedRate) {
		v.TagIDs = g.cat.Vocab.SampleTagSet(g.tagSrc, topic, cfg.TagSet)
	}
	g.pattern[i] = g.titleSrc.Intn(len(titlePatterns))
	g.popU[i] = g.pathSrc.Float64()
}

// mix writes video i's Dirichlet concentration: the mixture mean over
// countries, scaled by the jitter concentration.
func (g *generator) mix(i int, s *scratch) {
	v := &g.cat.Videos[i]
	mean := mixtureMean(g.cfg, g.prior, g.gravity[v.Upload], g.cat.Vocab, v.TagIDs, s.field, s.aff)
	alpha := g.row(i)
	for c := range alpha {
		a := g.cfg.JitterConcentration * mean[c]
		if a < 1e-4 {
			a = 1e-4 // keep Gamma well-defined for near-zero components
		}
		alpha[c] = a
	}
}

// jitter replaces video i's concentration with its Dirichlet draw, which
// keeps per-video variety around the mixture mean.
func (g *generator) jitter(i int) {
	row := g.row(i)
	g.geoSrc.Dirichlet(row, row)
}

// finish derives the rest of video i from its draws.
func (g *generator) finish(i int, s *scratch) {
	v := &g.cat.Videos[i]
	v.ID = VideoID(g.cfg.Seed, i)
	v.Title = synthTitle(titlePatterns[g.pattern[i]], g.cat.Vocab, v)
	// Spread the total across countries by the drawn field, exactly
	// (counts sum to the total).
	s.src = g.spread
	s.spread.Reset(&s.src, g.row(i))
	v.TrueViews = s.spread.Multinomial(v.TotalViews)
	assignPopVector(g.popU[i], g.cfg, g.prior, v, s.views)
}

// mixtureMean fills field with the normalized mixture of prior, gravity
// and tag affinities and returns it. aff is scratch of the same length.
func mixtureMean(cfg Config, prior, gravity []float64, voc *tags.Vocabulary, tagIDs []int, field, aff []float64) []float64 {
	wSum := cfg.WeightPrior + cfg.WeightGravity + cfg.WeightTags
	wp, wg, wt := cfg.WeightPrior/wSum, cfg.WeightGravity/wSum, cfg.WeightTags/wSum
	if len(tagIDs) == 0 {
		// Untagged videos: renormalize onto prior+gravity.
		total := wp + wg
		wp, wg, wt = wp/total, wg/total, 0
	}
	for c := range field {
		field[c] = wp*prior[c] + wg*gravity[c]
	}
	if wt > 0 {
		// Rank-weighted tag mixture: a video's geography follows its
		// leading (topical) tags far more than its trailing descriptive
		// ones, so tag k gets harmonic weight 1/(k+1).
		var hSum float64
		for k := range tagIDs {
			hSum += 1 / float64(k+1)
		}
		for k, tid := range tagIDs {
			per := wt * (1 / float64(k+1)) / hSum
			voc.AffinityInto(tid, aff)
			for c := range field {
				field[c] += per * aff[c]
			}
		}
	}
	return field
}

// gravityVector is the uploader-locality component: most mass on the
// upload country, the rest on its language peers by traffic share.
func gravityVector(world *geo.World, upload geo.CountryID) []float64 {
	const selfMass = 0.70
	out := make([]float64, world.N())
	peers := world.LanguagePeers(world.Country(upload).Language)
	var peerTraffic float64
	for _, p := range peers {
		if p != upload {
			peerTraffic += world.TrafficOf(p)
		}
	}
	out[upload] = selfMass
	rest := 1 - selfMass
	if peerTraffic > 0 {
		for _, p := range peers {
			if p != upload {
				out[p] += rest * world.TrafficOf(p) / peerTraffic
			}
		}
	} else {
		out[upload] += rest
	}
	return out
}

// assignPopVector computes the Map-Chart popularity vector from the
// ground-truth views, or injects one of the paper's two popularity-vector
// pathologies (empty map / corrupt vector); u is the video's pathology
// uniform. views is scratch with one entry per country.
func assignPopVector(u float64, cfg Config, traffic []float64, v *Video, views []float64) {
	switch {
	case u < cfg.PopEmptyRate:
		v.PopState = PopStateEmpty
		return
	case u < cfg.PopEmptyRate+cfg.PopCorruptRate:
		v.PopState = PopStateCorrupt
		// A corrupt vector is present but useless: the map rendered but
		// carried no data ("incorrect popularity vector" in §2's terms),
		// which densifies to all zeros downstream.
		v.PopVector = make([]int, len(traffic))
		return
	}
	for c, n := range v.TrueViews {
		views[c] = float64(n)
	}
	intensity, err := mapchart.Intensity(views, traffic)
	if err != nil {
		// Lengths come from the same world; a mismatch is a bug.
		panic("synth: intensity: " + err.Error())
	}
	v.PopVector = mapchart.Quantize(intensity)
	v.PopState = PopStateOK
}
