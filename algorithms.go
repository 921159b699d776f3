package ppsim

import (
	"fmt"
	"sort"

	"ppsim/internal/demux"
)

// Algorithm selects and parameterizes a demultiplexing algorithm by name.
// The zero values of unused parameters are ignored.
//
// Registered names (see AlgorithmNames):
//
//	rr           unpartitioned fully-distributed round-robin (Corollary 7)
//	perflow-rr   per-flow round-robin — the fully-distributed CPA variant
//	             of Iyer-McKeown [15] (relative queuing delay <= N*R/r)
//	partition    statically d-partitioned round-robin (Theorems 6, 8); D
//	random       uniform among free planes, fully distributed; Seed
//	cpa          centralized CPA [14]: zero relative delay at S >= 2
//	cpa-rotate   CPA with rotating tie-break (ablation)
//	cpa-sets     cpa under the name of its AIL/AOL-set formulation, which
//	             makes the same choices
//	stale-cpa    u-RT dispatch on u-slot-stale global information
//	             (Theorem 10); U
//	stale-cpa-randtie  stale-cpa with randomized tie-breaking (E19
//	             ablation: determinism causes the herding); U, Seed
//	buffered-cpa input-buffered u-RT CPA simulation (Theorem 12); U
//	buffered-rr  input-buffered fully-distributed round-robin
//	             (Theorem 13); Capacity
//	ftd          fractional traffic dispatch with the Section 5 extension
//	             (Theorem 14); H
//	least-loaded fully-distributed dispatch by own per-flow counts — still
//	             subject to the Theorem 6 bound (see experiment E17)
type Algorithm struct {
	// Name is the registry key.
	Name string
	// D is the partition size for "partition".
	D int
	// U is the staleness (slots) for "stale-cpa" and the buffer lag for
	// "buffered-cpa".
	U Time
	// H is the block parameter (> 1) for "ftd".
	H float64
	// Seed seeds "random".
	Seed int64
	// Capacity bounds each input buffer for "buffered-rr" (<= 0 means
	// unbounded).
	Capacity int
	// FaultAware wraps the algorithm with failure-aware dispatch: failed
	// planes are masked from its candidate set (their input gates appear
	// permanently busy), so dispatch routes around outages instead of
	// losing cells to dead planes. The report name becomes
	// "faultaware(<name>)".
	FaultAware bool
}

// factory lowers the spec to a demux constructor.
func (a Algorithm) factory() (func(demux.Env) (demux.Algorithm, error), error) {
	base, err := a.baseFactory()
	if err != nil {
		return nil, err
	}
	if !a.FaultAware {
		return base, nil
	}
	return func(e demux.Env) (demux.Algorithm, error) { return demux.NewFaultAware(e, base) }, nil
}

func (a Algorithm) baseFactory() (func(demux.Env) (demux.Algorithm, error), error) {
	switch a.Name {
	case "rr":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerInput) }, nil
	case "perflow-rr":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewRoundRobin(e, demux.PerFlow) }, nil
	case "partition":
		d := a.D
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaticPartition(e, d) }, nil
	case "random":
		s := a.Seed
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewRandom(e, s) }, nil
	case "cpa":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.MinAvail) }, nil
	case "cpa-rotate":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPA(e, demux.RotateTie) }, nil
	case "cpa-sets":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewCPASets(e) }, nil
	case "stale-cpa":
		u := a.U
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPA(e, u) }, nil
	case "stale-cpa-randtie":
		u, s := a.U, a.Seed
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewStaleCPARandomTie(e, u, s) }, nil
	case "buffered-cpa":
		u := a.U
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewBufferedCPA(e, u, demux.MinAvail) }, nil
	case "buffered-rr":
		c := a.Capacity
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewBufferedRR(e, c) }, nil
	case "ftd":
		h := a.H
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewFTD(e, h) }, nil
	case "least-loaded":
		return func(e demux.Env) (demux.Algorithm, error) { return demux.NewLocalLeastLoaded(e) }, nil
	case "":
		return nil, fmt.Errorf("ppsim: no algorithm selected (set Config.Algorithm.Name; one of %v)", AlgorithmNames())
	default:
		return nil, fmt.Errorf("ppsim: unknown algorithm %q (one of %v)", a.Name, AlgorithmNames())
	}
}

// AlgorithmNames lists the registered algorithm names, sorted.
func AlgorithmNames() []string {
	names := []string{
		"rr", "perflow-rr", "partition", "random", "least-loaded",
		"cpa", "cpa-rotate", "cpa-sets", "stale-cpa", "stale-cpa-randtie",
		"buffered-cpa", "buffered-rr", "ftd",
	}
	sort.Strings(names)
	return names
}

// InputBuffered reports whether the algorithm holds cells in input buffers
// (and therefore needs Config.BufferCap != 0).
func (a Algorithm) InputBuffered() bool {
	switch a.Name {
	case "buffered-cpa":
		return a.U > 0
	case "buffered-rr":
		return true
	}
	return false
}
