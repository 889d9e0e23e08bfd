package attack

import (
	"time"

	"microdata/internal/telemetry"
)

// Metric names the adversary registers. Like the engine's, they live in a
// per-adversary run registry; with a telemetry.Collector active the same
// increments also feed the global -metrics export.
const (
	// MetricRegionsProbed counts matched regions summed over resolved
	// groups (the survivors of the per-attribute pruning), once per
	// match-class group of an attacked table and once per MatchSet call.
	MetricRegionsProbed = "attack.regions.probed"
	// MetricCandidatesPruned counts regions eliminated by the per-attribute
	// indexes, summed over the same resolutions.
	MetricCandidatesPruned = "attack.candidates.pruned"
	// MetricCacheMiss counts values resolved through the index: one per
	// (attribute, dictionary entry) of an attacked table, and one per
	// attribute of a MatchSet victim. MetricCacheHit counts a group's
	// attribute cells served from the per-entry match classes instead:
	// one per (group, attribute).
	MetricCacheHit  = "attack.cache.hit"
	MetricCacheMiss = "attack.cache.miss"
	// MetricIndexBuildNS is the region-index construction time.
	MetricIndexBuildNS = "attack.index.build.ns"
	// MetricIndexRegions gauges the number of distinct QI regions indexed.
	MetricIndexRegions = "attack.index.regions"
)

// Stats is a snapshot of the adversary's indexing and matching counters.
// All zeros until the region index is first built (the naive reference
// paths never build it).
type Stats struct {
	// Regions is the number of distinct quasi-identifier regions indexed.
	Regions int
	// RegionsProbed counts matched regions summed over resolved groups.
	RegionsProbed int64
	// CandidatesPruned counts regions the per-attribute indexes eliminated.
	CandidatesPruned int64
	// CacheMisses counts values resolved through the index (one per
	// attribute and dictionary entry of an attacked table); CacheHits
	// counts group attribute cells served from those resolutions.
	CacheHits   int64
	CacheMisses int64
	// IndexBuild is the time spent constructing the region index.
	IndexBuild time.Duration
}

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

// Stats returns a snapshot of the adversary's counters.
func (a *Adversary) Stats() Stats {
	if a.ins == nil {
		return Stats{}
	}
	s := Stats{
		RegionsProbed:    a.ins.regionsProbed.Value(),
		CandidatesPruned: a.ins.candidatesPruned.Value(),
		CacheHits:        a.ins.cacheHits.Value(),
		CacheMisses:      a.ins.cacheMisses.Value(),
		IndexBuild:       time.Duration(a.ins.indexBuildNS.Value()),
	}
	if a.index != nil {
		s.Regions = a.index.n
	}
	return s
}
