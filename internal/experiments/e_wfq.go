package experiments

import (
	"ppsim/internal/cell"
	"ppsim/internal/queue"
	"ppsim/internal/stats"
	"ppsim/internal/wfq"
)

func init() {
	register("E27", "QoS framing: WFQ isolation vs FCFS at a contended link", e27WFQ)
}

// e27WFQ grounds the paper's opening sentence — switches exist to support
// QoS guarantees — at the link downstream of the switch: a well-behaved
// light flow shares a line with a rogue flow that dumps bursts. Under FCFS
// the light flow's delay scales with the rogue's burst; under WFQ it stays
// O(1/weight) regardless — which is why the *switch* must not add
// unbounded, jittery delay of its own (the paper's subject) if end-to-end
// guarantees are to survive.
func e27WFQ() (*Table, error) {
	t := &Table{
		ID:      "E27",
		Title:   "Light flow vs a bursty rogue on one output link",
		Claim:   "(substrate, intro + [25]) guaranteed-rate disciplines isolate flows: light-flow delay is O(1) under WFQ and O(burst) under FCFS",
		Columns: []string{"rogue burst", "FCFS light max delay", "WFQ light max delay"},
	}
	light := cell.Flow{In: 0, Out: 0}
	rogue := cell.Flow{In: 1, Out: 0}
	for _, burst := range []int{10, 50, 200, 1000} {
		// FCFS: single queue.
		var fcfsWorst stats.Summary
		{
			st := cell.NewStamper()
			q := queue.New[cell.Cell](burst + 8)
			for i := 0; i < burst; i++ {
				q.Push(st.Stamp(rogue, 0))
			}
			slot := cell.Time(0)
			sent := 0
			for sent < 20 || q.Len() > 0 {
				if slot%4 == 0 && sent < 20 {
					q.Push(st.Stamp(light, slot))
					sent++
				}
				if !q.Empty() {
					c := q.Pop()
					if c.Flow == light {
						fcfsWorst.Add(int64(slot - c.Arrive))
					}
				}
				slot++
			}
		}
		// WFQ: equal weights.
		var wfqWorst stats.Summary
		{
			st := cell.NewStamper()
			s := wfq.New()
			if err := s.AddFlow(light, 1); err != nil {
				return nil, err
			}
			if err := s.AddFlow(rogue, 1); err != nil {
				return nil, err
			}
			for i := 0; i < burst; i++ {
				if err := s.Enqueue(0, st.Stamp(rogue, 0)); err != nil {
					return nil, err
				}
			}
			slot := cell.Time(0)
			sent := 0
			for sent < 20 || s.Backlog() > 0 {
				if slot%4 == 0 && sent < 20 {
					if err := s.Enqueue(slot, st.Stamp(light, slot)); err != nil {
						return nil, err
					}
					sent++
				}
				if c, ok := s.Dequeue(slot); ok && c.Flow == light {
					wfqWorst.Add(int64(c.Depart - c.Arrive))
				}
				slot++
			}
		}
		t.AddRow(itoa(burst), itoa(fcfsWorst.Max()), itoa(wfqWorst.Max()))
	}
	return t, nil
}
