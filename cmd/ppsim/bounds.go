package main

import (
	"flag"
	"fmt"
	"io"

	"ppsim/internal/bounds"
)

// boundsCmd prints every bound the paper proves, evaluated for a concrete
// switch geometry — the quick way to answer "what does the theory
// promise/deny for MY switch?".
//
//	ppsim bounds -n 512 -k 16 -rprime 4 -u 8 -d 4
func boundsCmd(fs *flag.FlagSet) func(io.Writer) int {
	s := switchFlags{n: 512, k: 16, rprime: 4}
	s.register(fs, "n", "k", "rprime")
	u := fs.Int64("u", 8, "u-RT staleness / input-buffer size")
	d := fs.Int("d", 0, "partition size for the Theorem 6 line (0 = use r')")
	return func(w io.Writer) int {
		p := bounds.Params{N: s.n, K: s.k, RPrime: s.rprime}
		if err := p.Validate(); err != nil {
			return fail(fs, 2, err)
		}
		if *u < 0 {
			return fail(fs, 2, fmt.Errorf("-u %d must be >= 0", *u))
		}
		if *d < 0 {
			return fail(fs, 2, fmt.Errorf("-d %d must be >= 0 (0 uses r')", *d))
		}
		if *d == 0 {
			*d = int(s.rprime)
		}

		fmt.Fprintf(w, "geometry: N=%d ports, K=%d planes, r'=%d  =>  speedup S = %.2f\n\n", s.n, s.k, s.rprime, p.Speedup())
		fmt.Fprintf(w, "%-58s %12s\n", "bound (relative queuing delay and delay jitter, slots)", "value")
		row := func(label string, v float64) { fmt.Fprintf(w, "%-58s %12.1f\n", label, v) }
		row(fmt.Sprintf("Thm 6   d-partitioned fully-distributed (d=%d), >=", *d), bounds.Theorem6(p, *d))
		row("Cor 7   unpartitioned fully-distributed, >=", bounds.Corollary7(p))
		row("Thm 8   any fully-distributed, >=", bounds.Theorem8(p))
		row(fmt.Sprintf("Thm 10  u-RT (u=%d, u'=%d), >=", *u, bounds.UEffective(p, *u)), bounds.Theorem10(p, *u))
		row("        ... with traffic burstiness B =", bounds.Theorem10Burstiness(p, *u))
		row(fmt.Sprintf("Thm 12  buffered u-RT CPA (buffer >= %d, S >= 2), <=", *u), float64(bounds.Theorem12(*u)))
		row("Thm 13  input-buffered fully-distributed (any buffer), >=", bounds.Theorem13(p))
		row("[15]    distributed CPA upper bound, <=", float64(bounds.IyerMcKeownUpper(p)))
		fmt.Fprintln(w)
		if p.Speedup() >= bounds.CPAZeroDelaySpeedup() {
			fmt.Fprintf(w, "S = %.2f >= 2: the centralized CPA would achieve ZERO relative delay [14]\n", p.Speedup())
		} else {
			fmt.Fprintf(w, "S = %.2f < 2: even the centralized CPA has no zero-delay guarantee [14]\n", p.Speedup())
		}
		fmt.Fprintf(w, "a CIOQ crossbar of this size needs speedup %.3f to mimic output queuing [7]\n", bounds.CIOQMimicSpeedup(s.n))
		fmt.Fprintln(w)
		fmt.Fprintln(w, "the Cor 7 / Thm 8 rows are why the paper concludes the PPS does not scale")
		fmt.Fprintf(w, "with the port count: at N=%d the inherent worst case is already %.0f slots.\n", s.n, bounds.Theorem8(p))
		return 0
	}
}
