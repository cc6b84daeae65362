// Package tagviews is the paper's primary contribution: from a filtered
// crawl, derive each tag's geographic view distribution (Eq. 3,
// views(t)[c] = Σ_{v∈videos(t)} views(v)[c]), characterize how
// concentrated or global each tag is (the Figs. 2–3 observation), and
// use tag profiles as predictive markers of where a video's views come
// from — the conjecture the paper closes on and the basis of its
// proactive-geographic-caching proposal.
package tagviews

import (
	"fmt"
	"math"
	"sort"

	"viewstags/internal/dataset"
	"viewstags/internal/dist"
	"viewstags/internal/geo"
	"viewstags/internal/par"
	"viewstags/internal/reconstruct"
)

// Analysis holds the reconstructed per-video view fields and the
// aggregated per-tag view fields of one dataset.
type Analysis struct {
	World *geo.World
	Pyt   []float64 // the traffic estimate used for reconstruction

	records []dataset.Record
	fields  [][]float64 // per-record reconstructed view fields (sum = record views)
	skipped int

	tagViews  map[string][]float64 // Eq. 3 aggregates
	tagVideos map[string]int
	tagTotal  map[string]float64
}

// Build reconstructs every record's view field with the given traffic
// estimate and aggregates tag view fields (Eq. 3). Records whose
// popularity vector carries no signal are skipped and counted (the §2
// filter removes them up front, so normally none are).
//
// Reconstruction (Eq. 1–2) is independent per record and runs on every
// core. Aggregation then folds the fields in record order on one
// goroutine, so every sum happens in the order a Builder fed the same
// records would do it, and the result is bit-identical to it. It stays
// sequential because it is bound by the shared tag map: sharding it and
// merging per-shard maps costs more than it saves whenever the
// vocabulary is comparable to the record count, which is the paper's
// regime (705k tags over 691k videos).
func Build(world *geo.World, records []dataset.Record, pop [][]int, pyt []float64) (*Analysis, error) {
	if len(records) != len(pop) {
		return nil, fmt.Errorf("tagviews: %d records but %d pop vectors", len(records), len(pop))
	}
	a, err := newAnalysis(world, pyt)
	if err != nil {
		return nil, err
	}
	a.records = records
	a.fields = make([][]float64, len(records))
	par.For(len(records), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if field, err := reconstruct.ViewsFloat(pop[i], pyt, float64(records[i].TotalViews)); err == nil {
				a.fields[i] = field
			}
		}
	})
	for i := range records {
		a.fold(&records[i], a.fields[i])
	}
	return a, nil
}

// newAnalysis returns an empty analysis over the given world and traffic
// estimate.
func newAnalysis(world *geo.World, pyt []float64) (*Analysis, error) {
	if len(pyt) != world.N() {
		return nil, fmt.Errorf("tagviews: traffic estimate has %d entries for %d countries", len(pyt), world.N())
	}
	return &Analysis{
		World:     world,
		Pyt:       append([]float64(nil), pyt...),
		tagViews:  make(map[string][]float64),
		tagVideos: make(map[string]int),
		tagTotal:  make(map[string]float64),
	}, nil
}

// fold adds one record's reconstructed view field to the tag aggregates
// (Eq. 3). A nil field marks a record whose reconstruction failed; it is
// counted as skipped.
func (a *Analysis) fold(rec *dataset.Record, field []float64) {
	if field == nil {
		a.skipped++
		return
	}
	for _, t := range rec.Tags {
		agg := a.tagViews[t]
		if agg == nil {
			agg = make([]float64, a.World.N())
			a.tagViews[t] = agg
		}
		for c, x := range field {
			agg[c] += x
		}
		a.tagVideos[t]++
		a.tagTotal[t] += float64(rec.TotalViews)
	}
}

// N returns the number of records in the analysis.
func (a *Analysis) N() int { return len(a.records) }

// Skipped returns how many records failed reconstruction.
func (a *Analysis) Skipped() int { return a.skipped }

// NumTags returns the number of distinct tags aggregated.
func (a *Analysis) NumTags() int { return len(a.tagViews) }

// VideoField returns record i's reconstructed view field (nil when the
// record was skipped). The slice is shared; do not modify.
func (a *Analysis) VideoField(i int) []float64 { return a.fields[i] }

// Record returns record i.
func (a *Analysis) Record(i int) *dataset.Record { return &a.records[i] }

// TagProfile is one tag's geographic portrait — the unit of the paper's
// §3 analysis.
type TagProfile struct {
	Name       string
	Videos     int     // videos carrying the tag
	TotalViews float64 // Σ views of those videos
	Views      []float64
	// Derived concentration measures:
	Entropy            float64 // Shannon entropy (bits) of the normalized field
	EffectiveCountries float64 // 2^Entropy
	TopCountry         geo.CountryID
	TopShare           float64 // mass of the top country
	Spread             dist.Spread
	// JSToTraffic is the Jensen–Shannon divergence between the tag's
	// field and the traffic estimate — 0-ish for tags that "follow the
	// world distribution of YouTube users" (Fig. 2), large for
	// concentrated tags (Fig. 3).
	JSToTraffic float64
}

// TagProfile computes the profile of one tag. The boolean reports
// whether the tag exists in the dataset.
func (a *Analysis) TagProfile(name string) (*TagProfile, bool) {
	views, ok := a.tagViews[name]
	if !ok {
		return nil, false
	}
	return a.profileFor(name, views), true
}

func (a *Analysis) profileFor(name string, views []float64) *TagProfile {
	p := dist.Normalize(views)
	top := dist.ArgMax(p)
	// A tag can aggregate to zero mass when every carrying record had
	// zero total views — legal in crawled datasets, so degrade to an
	// all-zero profile rather than panic on the undefined divergence.
	var js float64
	if dist.Sum(views) > 0 {
		var err error
		js, err = dist.JS(views, a.Pyt)
		if err != nil {
			// Both vectors are world-sized by construction.
			panic("tagviews: " + err.Error())
		}
	}
	eff := dist.EffectiveCountries(views)
	prof := &TagProfile{
		Name:               name,
		Videos:             a.tagVideos[name],
		TotalViews:         a.tagTotal[name],
		Views:              views,
		EffectiveCountries: eff,
		TopCountry:         geo.CountryID(top),
		Spread:             dist.Classify(views),
		JSToTraffic:        js,
	}
	if top >= 0 {
		prof.TopShare = p[top]
	}
	if eff > 0 {
		// EffectiveCountries is 2^H by definition, so H = log2(eff).
		prof.Entropy = math.Log2(eff)
	}
	return prof
}

// TopTags returns the k tags with the most aggregated views, descending.
// Ties break by name for determinism.
func (a *Analysis) TopTags(k int) []*TagProfile {
	names := make([]string, 0, len(a.tagTotal))
	for n := range a.tagTotal {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ti, tj := a.tagTotal[names[i]], a.tagTotal[names[j]]
		if ti != tj {
			return ti > tj
		}
		return names[i] < names[j]
	})
	if k > len(names) {
		k = len(names)
	}
	out := make([]*TagProfile, k)
	for i := 0; i < k; i++ {
		out[i] = a.profileFor(names[i], a.tagViews[names[i]])
	}
	return out
}

// SpreadCensus classifies every tag and counts the classes — the
// dataset-wide version of the paper's local-vs-global observation.
func (a *Analysis) SpreadCensus() map[dist.Spread]int {
	out := make(map[dist.Spread]int, 3)
	for _, views := range a.tagViews {
		out[dist.Classify(views)]++
	}
	return out
}

// TagNames returns all aggregated tag names, sorted (stable iteration
// for reports and tests).
func (a *Analysis) TagNames() []string {
	names := make([]string, 0, len(a.tagViews))
	for n := range a.tagViews {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
