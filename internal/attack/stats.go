package attack

import "microdata/internal/telemetry"

// Metric names the adversary registers. Like the engine's, they live in a
// per-adversary run registry; with a telemetry.Collector active the same
// increments also feed the global -metrics export.
const (
	// MetricRegionsProbed counts matched regions summed over resolved
	// groups (the survivors of the per-attribute pruning), once per
	// match-class group of an attacked table.
	MetricRegionsProbed = "attack.regions.probed"
	// MetricCandidatesPruned counts regions eliminated by the per-attribute
	// indexes, summed over the same resolutions.
	MetricCandidatesPruned = "attack.candidates.pruned"
	// MetricCacheMiss counts values resolved through the index: one per
	// (attribute, dictionary entry) of an attacked table. MetricCacheHit
	// counts a group's attribute cells served from the per-entry match
	// classes instead: one per (group, attribute).
	MetricCacheHit  = "attack.cache.hit"
	MetricCacheMiss = "attack.cache.miss"
	// MetricIndexBuildNS is the region-index construction time.
	MetricIndexBuildNS = "attack.index.build.ns"
	// MetricIndexRegions gauges the number of distinct QI regions indexed.
	MetricIndexRegions = "attack.index.regions"
)

// instruments holds the adversary's registered metric handles, looked up
// once at index construction so match resolution never touches the
// registry's lock.
type instruments struct {
	reg              *telemetry.Registry
	regionsProbed    *telemetry.Counter
	candidatesPruned *telemetry.Counter
	cacheHits        *telemetry.Counter
	cacheMisses      *telemetry.Counter
	indexBuildNS     *telemetry.Counter
}

func newInstruments() *instruments {
	reg := telemetry.NewRunRegistry()
	return &instruments{
		reg:              reg,
		regionsProbed:    reg.Counter(MetricRegionsProbed),
		candidatesPruned: reg.Counter(MetricCandidatesPruned),
		cacheHits:        reg.Counter(MetricCacheHit),
		cacheMisses:      reg.Counter(MetricCacheMiss),
		indexBuildNS:     reg.Counter(MetricIndexBuildNS),
	}
}
