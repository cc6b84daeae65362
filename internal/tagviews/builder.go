package tagviews

import (
	"fmt"

	"viewstags/internal/dataset"
	"viewstags/internal/geo"
	"viewstags/internal/reconstruct"
)

// Builder is the streaming form of Build: records are folded in one at a
// time, partial builders merge associatively, and Finish produces the
// same Analysis a batch Build would. This is how a paper-scale dataset
// (691k records) is aggregated across machines.
type Builder struct {
	a *Analysis
}

// NewBuilder returns an empty builder over the given world and traffic
// estimate.
func NewBuilder(world *geo.World, pyt []float64) (*Builder, error) {
	a, err := newAnalysis(world, pyt)
	if err != nil {
		return nil, err
	}
	return &Builder{a: a}, nil
}

// Add folds one filtered record (with its dense popularity vector) into
// the builder. Records that fail reconstruction are counted and skipped.
func (b *Builder) Add(rec dataset.Record, pop []int) {
	field, err := reconstruct.ViewsFloat(pop, b.a.Pyt, float64(rec.TotalViews))
	if err != nil {
		field = nil
	}
	b.a.records = append(b.a.records, rec)
	b.a.fields = append(b.a.fields, field)
	b.a.fold(&rec, field)
}

// Merge folds another builder's partial state into b. The other builder
// must share the same world and traffic estimate; it must not be used
// afterwards.
func (b *Builder) Merge(other *Builder) error {
	a, o := b.a, other.a
	if o.World != a.World {
		return fmt.Errorf("tagviews: merging builders over different worlds")
	}
	for c := range a.Pyt {
		if a.Pyt[c] != o.Pyt[c] {
			return fmt.Errorf("tagviews: merging builders with different traffic estimates")
		}
	}
	a.records = append(a.records, o.records...)
	a.fields = append(a.fields, o.fields...)
	a.skipped += o.skipped
	for t, views := range o.tagViews {
		agg := a.tagViews[t]
		if agg == nil {
			a.tagViews[t] = views
		} else {
			for c, x := range views {
				agg[c] += x
			}
		}
		a.tagVideos[t] += o.tagVideos[t]
		a.tagTotal[t] += o.tagTotal[t]
	}
	return nil
}

// Finish seals the builder into an Analysis. The builder must not be
// used afterwards.
func (b *Builder) Finish() *Analysis {
	return b.a
}
