package ppsim

import (
	"ppsim/internal/adversary"
)

// SteeringTrace builds the Theorem 6 / Theorem 8 worst-case leaky-bucket
// traffic against the configured (deterministic, fully-distributed)
// algorithm: it aligns each demultiplexor in inputs so its next cell for
// out goes through plane, then emits a rate-R burst from those inputs.
// Replaying the returned trace through a fresh switch with the same Config
// reproduces the concentration (the construction and the replay are both
// deterministic).
//
// scrambleSlots > 0 prepends admissible random traffic so the construction
// starts from a non-trivial applicable configuration, as the proof's
// strongly-connected-configurations assumption allows.
func SteeringTrace(cfg Config, inputs []Port, out Port, plane PlaneID, scrambleSlots Time, scrambleSeed int64) (*Trace, error) {
	factory, err := cfg.internalFactory()
	if err != nil {
		return nil, err
	}
	return adversary.Steering(adversary.SteeringSpec{
		Fabric:        cfg.fabricConfig(),
		Factory:       factory,
		Inputs:        inputs,
		Out:           out,
		Plane:         plane,
		ScrambleSlots: scrambleSlots,
		ScrambleSeed:  scrambleSeed,
	})
}

// AllInputs returns the ports 0..n-1, the input set of Corollary 7's
// unpartitioned construction.
func AllInputs(n int) []Port { return adversary.AllInputs(n) }

// PartitionInputs returns the inputs that share plane k under the
// "partition" algorithm with partition size d on a switch with K planes —
// the set I of Theorem 8 (|I| = N*d/K).
func PartitionInputs(n, k, d int, plane PlaneID) []Port {
	return adversary.PartitionInputs(n, k, d, plane)
}

// ConcentrationTrace builds the bare Lemma 4 scenario: c cells for out in c
// consecutive slots from c distinct (fresh) inputs.
func ConcentrationTrace(n, c int, out Port) (*Trace, error) {
	return adversary.Concentration(n, c, out)
}

// HerdingTrace builds the Theorem 10 burst against u-RT algorithms:
// perSlot cells per slot to out for slots slots (after leadIn warm-up
// cells), all landing inside the algorithm's blind window.
func HerdingTrace(n int, out Port, slots Time, perSlot int, leadIn Time) (*Trace, error) {
	return adversary.Herding(adversary.HerdingSpec{
		N: n, Out: out, Slots: slots, PerSlot: perSlot, LeadIn: leadIn,
	})
}
