//go:build race

package fabric

// raceEnabled reports whether the race detector is compiled in. The
// allocation guard skips under -race: the detector instruments every
// allocation and shadow-maps memory, so alloc accounting no longer reflects
// the production build.
const raceEnabled = true
