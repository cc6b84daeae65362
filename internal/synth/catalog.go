package synth

import (
	"fmt"
	"sort"

	"viewstags/internal/geo"
)

// TopByViews returns the indices of the k most-viewed videos, descending.
// k is clamped to the catalog size.
func (c *Catalog) TopByViews(k int) []int {
	if k > len(c.Videos) {
		k = len(c.Videos)
	}
	idx := make([]int, len(c.Videos))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := c.Videos[idx[a]].TotalViews, c.Videos[idx[b]].TotalViews
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// TopInCountry returns the indices of the k videos with the most
// ground-truth views in country id, descending — the oracle behind the
// simulated API's per-country most_popular standard feed.
func (c *Catalog) TopInCountry(id geo.CountryID, k int) []int {
	if k > len(c.Videos) {
		k = len(c.Videos)
	}
	idx := make([]int, len(c.Videos))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := c.Videos[idx[a]].TrueViews[id], c.Videos[idx[b]].TrueViews[id]
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// ByID finds a video by its YouTube-shaped id. It is safe for
// concurrent use; the first call builds the id index.
func (c *Catalog) ByID(id string) (*Video, bool) {
	c.idOnce.Do(func() {
		c.idIndex = make(map[string]int, len(c.Videos))
		for i := range c.Videos {
			c.idIndex[c.Videos[i].ID] = i
		}
	})
	i, ok := c.idIndex[id]
	if !ok {
		return nil, false
	}
	return &c.Videos[i], true
}

// TagIndex returns a map from vocabulary tag id to the indices of videos
// carrying that tag.
func (c *Catalog) TagIndex() map[int][]int {
	out := make(map[int][]int)
	for i := range c.Videos {
		for _, t := range c.Videos[i].TagIDs {
			out[t] = append(out[t], i)
		}
	}
	return out
}

// TotalViews returns the catalog-wide view total.
func (c *Catalog) TotalViews() int64 {
	var t int64
	for i := range c.Videos {
		t += c.Videos[i].TotalViews
	}
	return t
}

// Stats summarizes the catalog's pathology composition.
type Stats struct {
	Videos     int
	Untagged   int
	PopOK      int
	PopEmpty   int
	PopCorrupt int
	UniqueTags int
	TotalViews int64
}

// Stats computes catalog composition statistics.
func (c *Catalog) Stats() Stats {
	s := Stats{Videos: len(c.Videos)}
	seen := make(map[int]bool)
	for i := range c.Videos {
		v := &c.Videos[i]
		if len(v.TagIDs) == 0 {
			s.Untagged++
		}
		for _, t := range v.TagIDs {
			seen[t] = true
		}
		switch v.PopState {
		case PopStateOK:
			s.PopOK++
		case PopStateEmpty:
			s.PopEmpty++
		case PopStateCorrupt:
			s.PopCorrupt++
		}
		s.TotalViews += v.TotalViews
	}
	s.UniqueTags = len(seen)
	return s
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("videos=%d untagged=%d popOK=%d popEmpty=%d popCorrupt=%d uniqueTags=%d totalViews=%d",
		s.Videos, s.Untagged, s.PopOK, s.PopEmpty, s.PopCorrupt, s.UniqueTags, s.TotalViews)
}
