//go:build race

package demux

// raceEnabled reports whether the race detector is compiled in. The
// allocation guards skip under -race: the detector instruments every
// allocation and shadow-maps memory, so alloc accounting no longer reflects
// the production build.
const raceEnabled = true
