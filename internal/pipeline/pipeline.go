// Package pipeline wires the full paper pipeline — synthetic world (or a
// crawled dataset file) → §2 filter → Alexa estimate → reconstruction →
// tag analysis — behind one call, shared by the binaries, the examples
// and the benchmark harness.
package pipeline

import (
	"fmt"
	"time"

	"viewstags/internal/alexa"
	"viewstags/internal/dataset"
	"viewstags/internal/geo"
	"viewstags/internal/synth"
	"viewstags/internal/tagviews"
)

// Result bundles the pipeline's artifacts.
type Result struct {
	World    *geo.World
	Catalog  *synth.Catalog // nil when the input was a dataset file
	Clean    *dataset.Clean
	Pyt      []float64
	Analysis *tagviews.Analysis

	// CatalogTime is how long producing the raw records took:
	// generating the catalog and extracting its records, or loading the
	// dataset file. AnalysisTime covers the rest: filter, traffic
	// estimate and analysis build.
	CatalogTime, AnalysisTime time.Duration
}

// FromSynthetic generates a catalog of the given size, extracts its
// crawl records, filters, estimates traffic, and builds the tag
// analysis. alexaCfg controls estimator fidelity (E4's knob).
func FromSynthetic(videos int, seed uint64, alexaCfg alexa.Config) (*Result, error) {
	cfg := synth.DefaultConfig(videos)
	cfg.Seed = seed
	return FromSyntheticConfig(cfg, alexaCfg)
}

// FromSyntheticConfig is FromSynthetic with full control over the
// generator — the entry point for ablations that vary world-model knobs
// (topic drift, mixture weights, pathology rates).
func FromSyntheticConfig(cfg synth.Config, alexaCfg alexa.Config) (*Result, error) {
	start := time.Now()
	cat, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: generate: %w", err)
	}
	// Arguments evaluate left to right: the catalog time includes Records.
	return fromRecords(cat.World, cat, cat.Records(), time.Since(start), alexaCfg)
}

// FromFile loads a crawled JSONL dataset and runs the same pipeline over
// the default world.
func FromFile(path string, alexaCfg alexa.Config) (*Result, error) {
	start := time.Now()
	records, err := dataset.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: load: %w", err)
	}
	return fromRecords(geo.DefaultWorld(), nil, records, time.Since(start), alexaCfg)
}

// fromRecords runs the analysis half of the pipeline; catalogTime is
// what producing records took.
func fromRecords(world *geo.World, cat *synth.Catalog, records []dataset.Record, catalogTime time.Duration, alexaCfg alexa.Config) (*Result, error) {
	start := time.Now()
	clean := dataset.Filter(world, records)
	pyt, err := alexa.Estimate(world, alexaCfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: alexa: %w", err)
	}
	an, err := tagviews.Build(world, clean.Records, clean.Pop, pyt)
	if err != nil {
		return nil, fmt.Errorf("pipeline: analysis: %w", err)
	}
	return &Result{World: world, Catalog: cat, Clean: clean, Pyt: pyt, Analysis: an,
		CatalogTime: catalogTime, AnalysisTime: time.Since(start)}, nil
}
