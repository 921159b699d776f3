// Package clos models three-stage Clos networks. The PPS is "a three-stage
// Clos network [8] with K < N switches in its center stage" (Section 1 of
// the paper); this package provides the classical combinatorial results the
// architecture rests on: the strict-sense nonblocking condition m >= 2n-1,
// the rearrangeability condition m >= n (Slepian-Duguid), and a
// constructive route assignment that realizes any partial permutation with
// m >= n middle switches via bipartite edge coloring.
package clos

import "fmt"

// Network is a symmetric Clos(m, n, r) network: r ingress switches of size
// n x m, m middle switches of size r x r, and r egress switches of size
// m x n. It has n*r external ports on each side.
type Network struct {
	// M is the number of middle-stage switches.
	M int
	// N is the number of external ports per edge switch.
	N int
	// R is the number of edge switches per side.
	R int
}

// New validates and returns a Clos(m, n, r) descriptor.
func New(m, n, r int) (Network, error) {
	if m <= 0 || n <= 0 || r <= 0 {
		return Network{}, fmt.Errorf("clos: all of m, n, r must be positive (got %d, %d, %d)", m, n, r)
	}
	return Network{M: m, N: n, R: r}, nil
}

// Ports returns the number of external ports per side, n*r.
func (c Network) Ports() int { return c.N * c.R }

// StrictlyNonBlocking reports Clos's 1953 condition m >= 2n-1: any request
// between an idle input and an idle output can be routed without moving
// existing connections.
func (c Network) StrictlyNonBlocking() bool { return c.M >= 2*c.N-1 }

// Rearrangeable reports the Slepian-Duguid condition m >= n: any partial
// permutation can be realized, possibly rearranging existing connections.
func (c Network) Rearrangeable() bool { return c.M >= c.N }

// FromPPS describes the N x N PPS with K planes as a Clos network: each
// input-port is a 1 x K ingress stage, each plane an N x N middle switch,
// each output-port a K x 1 egress stage — Clos(K, 1, N).
func FromPPS(n, k int) (Network, error) { return New(k, 1, n) }

// Request is one connection: external input port In to external output port
// Out, both in [0, Ports()).
type Request struct {
	In  int
	Out int
}

// Route assigns a middle switch to every request such that no two requests
// sharing an ingress or egress switch use the same middle switch. The
// request set must be a partial permutation (each input and each output
// used at most once). Routing succeeds whenever the network is
// rearrangeable; with m < n it fails as soon as some edge switch carries
// more than m requests.
//
// The algorithm is bipartite edge coloring with Delta <= m colors: build
// the multigraph whose left vertices are ingress switches, right vertices
// egress switches, and edges the requests; color edges greedily, repairing
// conflicts along alternating color paths (the Slepian-Duguid argument made
// executable).
func (c Network) Route(reqs []Request) ([]int, error) {
	ports := c.Ports()
	inUsed := make([]bool, ports)
	outUsed := make([]bool, ports)
	for _, q := range reqs {
		if q.In < 0 || q.In >= ports || q.Out < 0 || q.Out >= ports {
			return nil, fmt.Errorf("clos: request %+v outside %d ports", q, ports)
		}
		if inUsed[q.In] {
			return nil, fmt.Errorf("clos: input %d requested twice", q.In)
		}
		if outUsed[q.Out] {
			return nil, fmt.Errorf("clos: output %d requested twice", q.Out)
		}
		inUsed[q.In] = true
		outUsed[q.Out] = true
	}

	// Degree check: each edge switch carries at most m requests.
	degIn := make([]int, c.R)
	degOut := make([]int, c.R)
	for _, q := range reqs {
		u, v := q.In/c.N, q.Out/c.N
		degIn[u]++
		degOut[v]++
		if degIn[u] > c.M {
			return nil, fmt.Errorf("clos: ingress switch %d carries %d requests but only %d middle switches exist", u, degIn[u], c.M)
		}
		if degOut[v] > c.M {
			return nil, fmt.Errorf("clos: egress switch %d carries %d requests but only %d middle switches exist", v, degOut[v], c.M)
		}
	}

	// colorAtIn[u][c] / colorAtOut[v][c] = request index using color c at
	// that vertex, or -1.
	colorAtIn := make([][]int, c.R)
	colorAtOut := make([][]int, c.R)
	for i := 0; i < c.R; i++ {
		colorAtIn[i] = make([]int, c.M)
		colorAtOut[i] = make([]int, c.M)
		for x := 0; x < c.M; x++ {
			colorAtIn[i][x] = -1
			colorAtOut[i][x] = -1
		}
	}
	assign := make([]int, len(reqs))
	for i := range assign {
		assign[i] = -1
	}

	freeColor := func(slots []int) int {
		for x, r := range slots {
			if r < 0 {
				return x
			}
		}
		return -1
	}

	for e, q := range reqs {
		u, v := q.In/c.N, q.Out/c.N
		a := freeColor(colorAtIn[u])
		b := freeColor(colorAtOut[v])
		if a < 0 || b < 0 {
			// Cannot happen after the degree check, but guard anyway.
			return nil, fmt.Errorf("clos: no free middle switch at edge switches %d/%d", u, v)
		}
		if colorAtOut[v][a] < 0 {
			// a is free at both endpoints.
			assign[e] = a
			colorAtIn[u][a] = e
			colorAtOut[v][a] = e
			continue
		}
		// a is free at u but used at v, and b is free at v. Collect the
		// alternating (a, b) path starting with v's a-edge; it cannot
		// revisit u (u has no a-edge) or v (v has no b-edge), so it is
		// simple and flipping its colors frees a at v.
		var path []int
		color := a
		vtx, atEgress := v, true
		for {
			var pe int
			if atEgress {
				pe = colorAtOut[vtx][color]
			} else {
				pe = colorAtIn[vtx][color]
			}
			if pe < 0 {
				break
			}
			if len(path) > len(reqs) {
				return nil, fmt.Errorf("clos: internal error: alternating path is not simple")
			}
			path = append(path, pe)
			pq := reqs[pe]
			if atEgress {
				vtx = pq.In / c.N
			} else {
				vtx = pq.Out / c.N
			}
			atEgress = !atEgress
			if color == a {
				color = b
			} else {
				color = a
			}
		}
		// Flip: clear the old slots (only where still owned), then set.
		for _, pe := range path {
			pq := reqs[pe]
			pu, pv := pq.In/c.N, pq.Out/c.N
			old := assign[pe]
			if colorAtIn[pu][old] == pe {
				colorAtIn[pu][old] = -1
			}
			if colorAtOut[pv][old] == pe {
				colorAtOut[pv][old] = -1
			}
		}
		for _, pe := range path {
			pq := reqs[pe]
			pu, pv := pq.In/c.N, pq.Out/c.N
			nc := a
			if assign[pe] == a {
				nc = b
			}
			assign[pe] = nc
			colorAtIn[pu][nc] = pe
			colorAtOut[pv][nc] = pe
		}
		assign[e] = a
		colorAtIn[u][a] = e
		colorAtOut[v][a] = e
	}

	// Sanity: verify the coloring before returning it.
	if err := c.verify(reqs, assign); err != nil {
		return nil, fmt.Errorf("clos: internal coloring bug: %w", err)
	}
	return assign, nil
}

// verify checks that a middle-switch assignment is conflict-free.
func (c Network) verify(reqs []Request, assign []int) error {
	if len(reqs) != len(assign) {
		return fmt.Errorf("clos: %d requests but %d assignments", len(reqs), len(assign))
	}
	type slot struct{ sw, color int }
	seenIn := make(map[slot]int)
	seenOut := make(map[slot]int)
	for e, q := range reqs {
		m := assign[e]
		if m < 0 || m >= c.M {
			return fmt.Errorf("clos: request %d assigned invalid middle switch %d", e, m)
		}
		u, v := q.In/c.N, q.Out/c.N
		if prev, ok := seenIn[slot{u, m}]; ok {
			return fmt.Errorf("clos: requests %d and %d share middle %d from ingress %d", prev, e, m, u)
		}
		if prev, ok := seenOut[slot{v, m}]; ok {
			return fmt.Errorf("clos: requests %d and %d share middle %d to egress %d", prev, e, m, v)
		}
		seenIn[slot{u, m}] = e
		seenOut[slot{v, m}] = e
	}
	return nil
}
