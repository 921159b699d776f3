package demux

import (
	"fmt"

	"ppsim/internal/cell"
)

// StaticPartition statically assigns each input a fixed subset of d planes
// and round-robins within it. The paper discusses this as the
// "unrealistic and failure-prone" extreme (Section 1.2, Theorem 6 with
// d-partitioning, Theorem 8): even here the relative queuing delay is at
// least (R/r - 1) * N/S, because the input constraint forces d >= r', so
// some plane serves at least r'*N/K = N/S demultiplexors.
//
// Inputs are grouped: with G = K/d groups, input i uses planes
// [ (i mod G)*d , (i mod G)*d + d ). A failure of one plane therefore
// strands the N/G inputs of its group — the fault-tolerance argument for
// unpartitioned dispatch.
type StaticPartition struct {
	sendScratch
	env Env
	d   int
	ptr []cell.Plane // per-input offset within its group
}

// NewStaticPartition returns the d-partitioned algorithm. It returns an
// error unless r' <= d <= K and d divides K.
func NewStaticPartition(env Env, d int) (*StaticPartition, error) {
	k := env.Planes()
	if d < int(env.RPrime()) {
		return nil, fmt.Errorf("demux: partition size %d below r'=%d violates the input constraint", d, env.RPrime())
	}
	if d > k || k%d != 0 {
		return nil, fmt.Errorf("demux: partition size %d must divide K=%d", d, k)
	}
	return &StaticPartition{env: env, d: d, ptr: make([]cell.Plane, env.Ports())}, nil
}

// Name implements Algorithm.
func (sp *StaticPartition) Name() string { return fmt.Sprintf("partition-%d", sp.d) }

// Group returns the index of the plane group input in uses.
func (sp *StaticPartition) Group(in cell.Port) int {
	return PartitionGroup(in, sp.env.Planes(), sp.d)
}

// PartitionGroup returns the plane group that input in uses under static
// partitioning of k planes into groups of d: group in mod (k/d), which
// holds planes g*d .. g*d+d-1.
func PartitionGroup(in cell.Port, k, d int) int {
	return int(in) % (k / d)
}

// Slot implements Algorithm.
func (sp *StaticPartition) Slot(t cell.Time, arrivals []cell.Cell) ([]Send, error) {
	if len(arrivals) == 0 {
		return nil, nil
	}
	sends := sp.take()
	for _, c := range arrivals {
		in := c.Flow.In
		base := cell.Plane(sp.Group(in) * sp.d)
		free := sp.env.FreeGateMask(in, t)
		chosen := cell.NoPlane
		for x := 0; x < sp.d; x++ {
			p := base + (sp.ptr[in]+cell.Plane(x))%cell.Plane(sp.d)
			if free&(1<<uint(p)) != 0 {
				chosen = p
				break
			}
		}
		if chosen == cell.NoPlane {
			return nil, fmt.Errorf("demux: partition input %d has no free gate at slot %d", in, t)
		}
		sp.ptr[in] = (chosen - base + 1) % cell.Plane(sp.d)
		sends = append(sends, Send{Cell: c, Plane: chosen})
	}
	return sp.keep(sends), nil
}

// Buffered implements Algorithm (bufferless).
func (sp *StaticPartition) Buffered(cell.Port) int { return 0 }

// WouldChoose implements Prober.
func (sp *StaticPartition) WouldChoose(in, out cell.Port) (cell.Plane, bool) {
	base := cell.Plane(sp.Group(in) * sp.d)
	return base + sp.ptr[in]%cell.Plane(sp.d), true
}
