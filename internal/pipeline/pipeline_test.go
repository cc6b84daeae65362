package pipeline

import (
	"path/filepath"
	"testing"

	"viewstags/internal/alexa"
	"viewstags/internal/dataset"
)

func TestFromSynthetic(t *testing.T) {
	res, err := FromSynthetic(1000, 7, alexa.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Catalog == nil || res.Clean == nil || res.Analysis == nil {
		t.Fatal("missing artifacts")
	}
	if res.Clean.Report.Crawled != 1000 {
		t.Fatalf("crawled = %d", res.Clean.Report.Crawled)
	}
	if res.Analysis.N() != res.Clean.Report.Kept {
		t.Fatal("analysis size != kept records")
	}
	if res.CatalogTime <= 0 || res.AnalysisTime <= 0 {
		t.Fatalf("phase times catalog=%v analysis=%v, want both timed", res.CatalogTime, res.AnalysisTime)
	}
}

func TestFromFileRoundTrip(t *testing.T) {
	res, err := FromSynthetic(500, 9, alexa.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.jsonl.gz")
	if err := dataset.SaveFile(path, res.Catalog.Records()); err != nil {
		t.Fatal(err)
	}
	loaded, err := FromFile(path, alexa.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Catalog != nil {
		t.Fatal("file pipeline should have no catalog")
	}
	if loaded.Clean.Report != res.Clean.Report {
		t.Fatalf("filter reports differ: %v vs %v", loaded.Clean.Report, res.Clean.Report)
	}
	if loaded.Analysis.NumTags() != res.Analysis.NumTags() {
		t.Fatal("tag counts differ between file and in-memory pipelines")
	}
}

func TestFromFileMissing(t *testing.T) {
	if _, err := FromFile(filepath.Join(t.TempDir(), "nope.jsonl"), alexa.DefaultConfig()); err == nil {
		t.Fatal("missing file accepted")
	}
}
