// Package framer provides the machinery the paper places "outside of the
// switch": fragmentation of variable-length packets into fixed-size cells
// at the inputs, and reassembly at the outputs ("Packets are stored and
// transmitted in the switch as fixed-size cells; fragmentation and
// reassembly are done outside of the switch", Section 1).
//
// The Segmenter turns an offered packet workload into a cell-level
// traffic.Source (one cell per input per slot while packets are pending)
// and remembers which cell of each flow belongs to which packet. The
// Reassembler consumes the switch's departures — the PPS guarantees
// per-flow cell order, which is exactly what reassembly needs — and
// reports per-packet completion times. Packet-level delay exposes an
// effect invisible at cell granularity: a packet is only as fast as its
// slowest cell, so cell-delay tails translate directly into packet delay.
package framer

import (
	"fmt"
	"sort"

	"ppsim/internal/cell"
	"ppsim/internal/queue"
	"ppsim/internal/traffic"
)

// Packet is one variable-length unit offered to an input.
type Packet struct {
	// ID is unique per Segmenter.
	ID uint64
	// Flow is the (input, output) pair every cell of the packet takes.
	Flow cell.Flow
	// Cells is the packet length in cells (>= 1).
	Cells int
	// Offered is the slot the packet became available at the input.
	Offered cell.Time
}

// Segmenter fragments offered packets into cells and serves them as a
// traffic.Source: each slot, each input with a pending packet emits the
// next cell of its head packet (head-of-line per input, like a real
// line card).
type Segmenter struct {
	n       int
	pending []queue.FIFO[*segPacket] // per input
	// perFlow maps each flow to the packet boundaries of its cell stream:
	// bounds[i] is the packet owning flow cells [start_i, start_i+len_i).
	perFlow map[cell.Flow][]*segPacket
	nextID  uint64
	backlog int
	offered []Packet
	last    cell.Time
	// future holds packets offered after the current slot.
	future []*segPacket
}

type segPacket struct {
	pkt       Packet
	flowStart uint64 // first FlowSeq of this packet within its flow
	emitted   int
}

// NewSegmenter returns a segmenter for an n-port switch.
func NewSegmenter(n int) *Segmenter {
	return &Segmenter{
		n:       n,
		pending: make([]queue.FIFO[*segPacket], n),
		perFlow: make(map[cell.Flow][]*segPacket),
		last:    -1,
	}
}

// Offer schedules a packet. Packets must be offered before the slot they
// become available is queried; per (input) they are served in offer order.
// It returns the packet's ID.
func (s *Segmenter) Offer(flow cell.Flow, cells int, at cell.Time) (uint64, error) {
	if cells < 1 {
		return 0, fmt.Errorf("framer: packet needs >= 1 cell, got %d", cells)
	}
	if int(flow.In) < 0 || int(flow.In) >= s.n || int(flow.Out) < 0 || int(flow.Out) >= s.n {
		return 0, fmt.Errorf("framer: flow %v outside %d-port switch", flow, s.n)
	}
	if at <= s.last {
		return 0, fmt.Errorf("framer: packet offered at slot %d but slot %d already served", at, s.last)
	}
	id := s.nextID
	s.nextID++
	p := Packet{ID: id, Flow: flow, Cells: cells, Offered: at}
	s.offered = append(s.offered, p)
	s.future = append(s.future, &segPacket{pkt: p})
	return id, nil
}

// Arrivals implements traffic.Source: one cell per input per slot from the
// head packet of that input.
func (s *Segmenter) Arrivals(t cell.Time, dst []traffic.Arrival) []traffic.Arrival {
	if t <= s.last {
		panic("framer: slots must be queried in increasing order")
	}
	s.last = t
	// Admit packets that became available.
	if len(s.future) > 0 {
		sort.SliceStable(s.future, func(i, j int) bool { return s.future[i].pkt.Offered < s.future[j].pkt.Offered })
		keep := s.future[:0]
		for _, sp := range s.future {
			if sp.pkt.Offered <= t {
				s.admit(sp)
			} else {
				keep = append(keep, sp)
			}
		}
		s.future = keep
	}
	for in := 0; in < s.n; in++ {
		q := &s.pending[in]
		if q.Empty() {
			continue
		}
		sp := q.Peek()
		dst = append(dst, traffic.Arrival{In: sp.pkt.Flow.In, Out: sp.pkt.Flow.Out})
		sp.emitted++
		s.backlog--
		if sp.emitted == sp.pkt.Cells {
			q.Pop()
		}
	}
	return dst
}

func (s *Segmenter) admit(sp *segPacket) {
	f := sp.pkt.Flow
	// The packet owns the next Cells cells of its flow's stream.
	var start uint64
	if prev := s.perFlow[f]; len(prev) > 0 {
		last := prev[len(prev)-1]
		start = last.flowStart + uint64(last.pkt.Cells)
	}
	sp.flowStart = start
	s.perFlow[f] = append(s.perFlow[f], sp)
	s.pending[sp.pkt.Flow.In].Push(sp)
	s.backlog += sp.pkt.Cells
}

// End implements traffic.Source: the segmenter cannot know when a pending
// backlog drains in advance, so it reports unbounded until empty.
func (s *Segmenter) End() cell.Time {
	if s.backlog == 0 && len(s.future) == 0 {
		return s.last + 1
	}
	return cell.None
}

// Backlog reports cells not yet emitted.
func (s *Segmenter) Backlog() int { return s.backlog }

// Offered returns all offered packets.
func (s *Segmenter) Offered() []Packet { return s.offered }

// packetOf resolves which packet a flow's cell (by FlowSeq) belongs to.
func (s *Segmenter) packetOf(f cell.Flow, flowSeq uint64) (Packet, error) {
	ps := s.perFlow[f]
	i := sort.Search(len(ps), func(i int) bool {
		return ps[i].flowStart+uint64(ps[i].pkt.Cells) > flowSeq
	})
	if i >= len(ps) || flowSeq < ps[i].flowStart {
		return Packet{}, fmt.Errorf("framer: flow %v cell %d belongs to no offered packet", f, flowSeq)
	}
	return ps[i].pkt, nil
}

// Reassembler completes packets from switch departures.
type Reassembler struct {
	seg      *Segmenter
	got      map[uint64]int
	done     map[uint64]cell.Time // packet ID -> completion slot
	complete int
}

// NewReassembler returns a reassembler bound to the segmentation.
func NewReassembler(seg *Segmenter) *Reassembler {
	return &Reassembler{seg: seg, got: make(map[uint64]int), done: make(map[uint64]cell.Time)}
}

// OnDepart consumes one departed cell.
func (r *Reassembler) OnDepart(c cell.Cell) error {
	p, err := r.seg.packetOf(c.Flow, c.FlowSeq)
	if err != nil {
		return err
	}
	r.got[p.ID]++
	if r.got[p.ID] > p.Cells {
		return fmt.Errorf("framer: packet %d received %d cells but has only %d", p.ID, r.got[p.ID], p.Cells)
	}
	if r.got[p.ID] == p.Cells {
		r.done[p.ID] = c.Depart
		r.complete++
	}
	return nil
}

// Completed reports how many packets finished reassembly.
func (r *Reassembler) Completed() int { return r.complete }

// Delay returns a completed packet's delay: completion slot minus offer
// slot. ok is false while the packet is incomplete.
func (r *Reassembler) Delay(p Packet) (cell.Time, bool) {
	d, ok := r.done[p.ID]
	if !ok {
		return 0, false
	}
	return d - p.Offered, true
}
