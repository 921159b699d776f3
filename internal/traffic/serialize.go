package traffic

import (
	"encoding/json"
	"fmt"
	"slices"

	"ppsim/internal/cell"
)

// record is the portable on-disk form of one arrival.
type record struct {
	T   int64 `json:"t"`
	In  int32 `json:"in"`
	Out int32 `json:"out"`
}

// MarshalJSON encodes the trace as a canonical (slot-major, then
// input-major — the order of its span) array of {t, in, out} records, so two
// equal traces encode byte-identically.
func (tr *Trace) MarshalJSON() ([]byte, error) {
	as := tr.AppendArrivals(nil, 0, tr.End())
	recs := make([]record, len(as))
	for i, a := range as {
		recs[i] = record{T: int64(a.T), In: int32(a.In), Out: int32(a.Out)}
	}
	return json.Marshal(recs)
}

// UnmarshalJSON decodes a record array into the trace, replacing its
// contents. It rejects malformed schedules (negative slots, two arrivals
// on one input in a slot).
func (tr *Trace) UnmarshalJSON(data []byte) error {
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return fmt.Errorf("traffic: decoding trace: %w", err)
	}
	fresh := NewTrace()
	for i, r := range recs {
		if err := fresh.Add(cell.Time(r.T), cell.Port(r.In), cell.Port(r.Out)); err != nil {
			return fmt.Errorf("traffic: record %d: %w", i, err)
		}
	}
	*tr = *fresh
	return nil
}

// Equal reports whether two traces schedule exactly the same arrivals.
func (tr *Trace) Equal(other *Trace) bool {
	return slices.Equal(tr.AppendArrivals(nil, 0, tr.End()), other.AppendArrivals(nil, 0, other.End()))
}
