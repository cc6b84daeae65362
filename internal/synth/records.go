package synth

import (
	"viewstags/internal/dataset"
	"viewstags/internal/geo"
	"viewstags/internal/par"
)

// Records converts the catalog into the dataset's crawl-record schema —
// exactly what a complete, loss-free snowball crawl of the simulated API
// would collect (the ytapi/crawler tests verify that equivalence over
// HTTP). Binaries and benchmarks use this fast path when the crawl
// itself is not the subject of the experiment.
func (c *Catalog) Records() []dataset.Record {
	out := make([]dataset.Record, len(c.Videos))
	par.For(len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = c.record(&c.Videos[i])
		}
	})
	return out
}

// record converts one video into its crawl record.
func (c *Catalog) record(v *Video) dataset.Record {
	rec := dataset.Record{
		VideoID:    v.ID,
		Title:      v.Title,
		Uploader:   c.World.Country(v.Upload).Code,
		Category:   v.Category,
		TotalViews: v.TotalViews,
		Tags:       v.TagNames(c.Vocab),
	}
	switch v.PopState {
	case PopStateOK:
		for ci, x := range v.PopVector {
			if x > 0 {
				rec.PopCodes = append(rec.PopCodes, c.World.Country(geo.CountryID(ci)).Code)
				rec.PopValues = append(rec.PopValues, x)
			}
		}
	case PopStateCorrupt:
		// The watch page rendered a data-less map: the scrape yields
		// a handful of countries, all zero (matches ytapi's serving).
		rec.PopCodes = []string{"US", "GB", "FR"}
		rec.PopValues = []int{0, 0, 0}
	case PopStateEmpty:
		// No map at all.
	}
	return rec
}
