package tagviews

import (
	"math"
	"runtime"
	"testing"

	"viewstags/internal/alexa"
	"viewstags/internal/geo"
)

func TestBuilderMatchesBatchBuild(t *testing.T) {
	f := testFixture(t)
	assertAnalysesIdentical(t, builderAnalysis(t, f), f.an)
}

// TestBuildMatchesBuilderBitForBit pins that Build's parallel
// reconstruction changes no bit: its aggregation is sequential in record
// order, exactly as a Builder fed the same records, whatever GOMAXPROCS.
func TestBuildMatchesBuilderBitForBit(t *testing.T) {
	f := testFixture(t)
	want := builderAnalysis(t, f)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4, 7} {
		runtime.GOMAXPROCS(procs)
		got, err := Build(f.cat.World, f.clean.Records, f.clean.Pop, f.pyt)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		assertAnalysesIdentical(t, want, got)
	}
}

// TestBuildParallelValidation checks that Build rejects mismatched
// records and pop vectors before its parallel reconstruction starts.
func TestBuildParallelValidation(t *testing.T) {
	f := testFixture(t)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		if _, err := Build(f.cat.World, f.clean.Records[:2], f.clean.Pop[:1], f.pyt); err == nil {
			t.Fatalf("GOMAXPROCS=%d: mismatched inputs accepted", procs)
		}
	}
}

// builderAnalysis feeds the fixture's records to a Builder one by one.
func builderAnalysis(t *testing.T, f *pipelineFixture) *Analysis {
	t.Helper()
	b, err := NewBuilder(f.cat.World, f.pyt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.clean.Records {
		b.Add(f.clean.Records[i], f.clean.Pop[i])
	}
	return b.Finish()
}

// assertAnalysesIdentical checks every record field and tag aggregate
// bit for bit.
func assertAnalysesIdentical(t *testing.T, want, got *Analysis) {
	t.Helper()
	if got.N() != want.N() || got.Skipped() != want.Skipped() || got.NumTags() != want.NumTags() {
		t.Fatalf("shape (%d records, %d skipped, %d tags), want (%d, %d, %d)",
			got.N(), got.Skipped(), got.NumTags(), want.N(), want.Skipped(), want.NumTags())
	}
	for i := 0; i < want.N(); i++ {
		if !sameBits(got.VideoField(i), want.VideoField(i)) {
			t.Fatalf("record %d field differs", i)
		}
	}
	for _, name := range want.TagNames() {
		wp, _ := want.TagProfile(name)
		gp, ok := got.TagProfile(name)
		if !ok || gp.Videos != wp.Videos || math.Float64bits(gp.TotalViews) != math.Float64bits(wp.TotalViews) ||
			!sameBits(gp.Views, wp.Views) {
			t.Fatalf("tag %q aggregate differs", name)
		}
	}
}

// sameBits reports whether two float slices are identical bit for bit
// (and both nil or both non-nil).
func sameBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestBuilderCountsSkips(t *testing.T) {
	f := testFixture(t)
	b, err := NewBuilder(f.cat.World, f.pyt)
	if err != nil {
		t.Fatal(err)
	}
	// An all-zero popularity vector cannot be reconstructed.
	rec := f.clean.Records[0]
	b.Add(rec, make([]int, f.cat.World.N()))
	an := b.Finish()
	if an.Skipped() != 1 {
		t.Fatalf("skipped = %d", an.Skipped())
	}
	if an.VideoField(0) != nil {
		t.Fatal("skipped record should have nil field")
	}
}

func TestMergeRejectsMismatchedWorlds(t *testing.T) {
	f := testFixture(t)
	otherWorld := geo.DefaultWorld() // distinct pointer
	a, err := NewBuilder(f.cat.World, f.pyt)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := NewBuilder(otherWorld, otherWorld.Traffic())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(bad); err == nil {
		t.Fatal("merge across worlds accepted")
	}
	// Same world, different estimate.
	est2, err := alexa.Estimate(f.cat.World, alexa.Config{NoiseSigma: 0.5, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewBuilder(f.cat.World, est2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b2); err == nil {
		t.Fatal("merge across traffic estimates accepted")
	}
}

func TestNewBuilderValidation(t *testing.T) {
	w := geo.DefaultWorld()
	if _, err := NewBuilder(w, []float64{1}); err == nil {
		t.Fatal("short estimate accepted")
	}
}
