// Package ppsim is a simulation laboratory for parallel packet switches
// (PPS), reproducing "The Inherent Queuing Delay of Parallel Packet
// Switches" (Attiya & Hay, SPAA 2004).
//
// A PPS is a three-stage Clos network: N input-ports, K < N center-stage
// switches ("planes") running at internal rate r < R, and N output-ports.
// The package provides the slotted-time formal model of the paper — input
// and output rate constraints on the internal lines, bufferless and
// input-buffered variants — together with every demultiplexing algorithm
// the paper analyses, the work-conserving FCFS output-queued reference
// switch, leaky-bucket traffic machinery, and the adversarial traffic
// constructions from the lower-bound proofs.
//
// The primary entry point is Run, which executes a traffic source through a
// configured PPS and the shadow reference switch and reports the relative
// queuing delay and relative delay jitter:
//
//	cfg := ppsim.Config{N: 16, K: 8, RPrime: 2, Algorithm: ppsim.Algorithm{Name: "rr"}}
//	res, err := ppsim.Run(cfg, ppsim.NewBernoulli(16, 0.6, 10_000, 1), ppsim.Options{})
//	fmt.Println(res.Report)
package ppsim

import (
	"fmt"

	"ppsim/internal/cell"
	"ppsim/internal/demux"
	"ppsim/internal/fabric"
	"ppsim/internal/harness"
	"ppsim/internal/metrics"
	"ppsim/internal/mux"
	"ppsim/internal/traffic"
)

// Re-exported core types. These aliases are the public names; the internal
// packages are implementation detail.
type (
	// Time is a discrete time-slot index.
	Time = cell.Time
	// Port identifies an input- or output-port.
	Port = cell.Port
	// PlaneID identifies a center-stage plane.
	PlaneID = cell.Plane
	// Cell is one fixed-size switched cell with its timing stamps.
	Cell = cell.Cell
	// Flow is an (input, output) pair.
	Flow = cell.Flow
	// Source produces cell arrivals per slot. A custom source that
	// implements only Arrivals and End is called exactly once per slot, at
	// its slot — so it may react to the run it feeds (a Segmenter accepts
	// packets mid-run) — and runs on the stepped core. One whose stream is fixed in advance
	// opts into being read ahead in spans, and into the event core, by also
	// implementing AppendArrivals(dst []Arrival, from, to Time) []Arrival:
	// every arrival of slots [from, to), in slot order, each stamped with
	// its slot in Arrival.T. All bundled generators do. Shape and
	// WithDeadline are read ahead exactly when the source they wrap is.
	Source = traffic.Source
	// Arrival is one (input, output) arrival event.
	Arrival = traffic.Arrival
	// Trace is an explicit finite arrival schedule.
	Trace = traffic.Trace
	// Report carries the relative-delay figures of one execution.
	Report = metrics.Report
	// Result is a Report plus execution-level measurements.
	Result = harness.Result
	// Options tunes a Run.
	Options = harness.Options
	// Engine selects the slot-execution core (see EngineAuto et al.).
	Engine = harness.Engine
)

// Engine constants, re-exported for Options.Engine: EngineAuto (the zero
// value) picks the fastest eligible core, the others force one with
// documented degradation recorded in Result.Engine/Result.EngineReason.
const (
	EngineAuto    = harness.EngineAuto
	EngineStepped = harness.EngineStepped
	EngineEvent   = harness.EngineEvent
)

// ParseEngine maps a CLI flag value ("auto", "stepped", "event") to an
// Engine.
func ParseEngine(s string) (Engine, error) { return harness.ParseEngine(s) }

// NoTime is the unset-time sentinel (used as "unbounded" for sources).
const NoTime = cell.None

// Config describes the switch under test.
type Config struct {
	// N is the number of external ports.
	N int
	// K is the number of center-stage planes.
	K int
	// RPrime is r' = R/r >= 1; the speedup is S = K/RPrime.
	RPrime int64
	// BufferCap bounds input-port buffers: 0 = bufferless PPS (the
	// default), -1 = unbounded, positive = per-input capacity.
	BufferCap int
	// MuxBudget, when positive, bounds each output's pulls per slot (an
	// ablation, DESIGN.md §5): 1 is one-pull-per-slot FCFS, and >= K is the
	// default eager multiplexor.
	MuxBudget int
	// DisableChecks turns off the per-slot conservation audit (it is on
	// by default; turn off only for throughput benchmarking).
	DisableChecks bool
	// Algorithm selects the demultiplexing algorithm.
	Algorithm Algorithm
}

// Speedup returns S = K / r'.
func (c Config) Speedup() float64 { return float64(c.K) / float64(c.RPrime) }

// ResolveWorkers reports the effective stage-parallel worker count an
// Options.Workers request resolves to for an N-port switch: 0 means the
// serial engine, a positive value the size of the persistent worker pool
// (clamped to N). -1 (auto) derives the count from GOMAXPROCS and N with a
// floor of 16 ports per shard — auto never spawns a pool whose shards hold
// fewer than 16 outputs, falling back to serial (so e.g. N=16 always
// resolves auto to 0, and N=64 to at most 4 workers), because below that
// the per-slot stage barrier costs more than the sharded work. An explicit
// positive request bypasses the floor. Result.Workers records what a run
// actually used.
func ResolveWorkers(workers, n int) int { return fabric.ResolveWorkers(workers, n) }

// fabricConfig lowers the public config.
func (c Config) fabricConfig() fabric.Config {
	fc := fabric.Config{
		N:               c.N,
		K:               c.K,
		RPrime:          c.RPrime,
		BufferCap:       c.BufferCap,
		CheckInvariants: !c.DisableChecks,
	}
	if c.MuxBudget > 0 {
		fc.Mux = mux.BoundedEager{Max: c.MuxBudget}
	}
	return fc
}

// Run executes src through a fresh PPS configured by cfg and through the
// shadow FCFS output-queued reference switch, until both drain, and returns
// the matched measurements.
func Run(cfg Config, src Source, opts Options) (Result, error) {
	factory, err := cfg.Algorithm.factory()
	if err != nil {
		return Result{}, err
	}
	return harness.Run(cfg.fabricConfig(), factory, src, opts)
}

// Compare runs the same finite source through one switch per algorithm and
// returns the results keyed by the name each algorithm reports, for
// side-by-side tables. Two algorithms that report the same name (two
// random seeds, say) are an error, not a silently overwritten result.
func Compare(cfg Config, algs []Algorithm, src *Trace, opts Options) (map[string]Result, error) {
	out := make(map[string]Result, len(algs))
	for _, a := range algs {
		c := cfg
		c.Algorithm = a
		res, err := Run(c, src, opts)
		if err != nil {
			return nil, fmt.Errorf("ppsim: algorithm %q: %w", a.Name, err)
		}
		if _, dup := out[res.AlgorithmName]; dup {
			return nil, fmt.Errorf("ppsim: algorithm %q reports the name %q of an earlier one; Compare keys results by name", a.Name, res.AlgorithmName)
		}
		out[res.AlgorithmName] = res
	}
	return out, nil
}

// Validate checks the configuration without running anything: it builds a
// throwaway switch, which constructs the algorithm and surfaces geometry
// and parameter errors (e.g. a partition size that does not divide K).
func (c Config) Validate() error {
	factory, err := c.Algorithm.factory()
	if err != nil {
		return err
	}
	_, err = fabric.New(c.fabricConfig(), factory)
	return err
}

// internalFactory exposes the lowered algorithm factory to sibling files.
func (c Config) internalFactory() (func(demux.Env) (demux.Algorithm, error), error) {
	return c.Algorithm.factory()
}
