package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23", "E24", "E25", "E26", "E27", "E28"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("entry %d = %s, want %s (ID-numeric ordering)", i, e.ID, want[i])
		}
	}
	if _, ok := Get("E4"); !ok {
		t.Error("Get(E4) failed")
	}
	if _, ok := Get("E99"); ok {
		t.Error("Get(E99) should fail")
	}
}

// TestAllExperimentsRunQuick sanity-checks the shape of every table. It
// reads the memoised run TestGolden pins, so it costs no second pass; its
// name is kept so the test's id stays stable.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tab := table(t, e.ID)
			if tab.ID != e.ID {
				t.Errorf("table ID %s != entry ID %s", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("row %v has %d cells, want %d", row, len(row), len(tab.Columns))
				}
			}
			txt := tab.Text()
			if !strings.Contains(txt, e.ID) {
				t.Error("Text() missing experiment ID")
			}
			md := tab.Markdown()
			if !strings.Contains(md, "| --- |") && !strings.Contains(md, "--- | ---") {
				t.Errorf("Markdown() missing separator: %q", md)
			}
		})
	}
}

func mustAtoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		t.Fatalf("not an int: %q", s)
	}
	return v
}

func TestMarkdownEscapesPipes(t *testing.T) {
	tab := &Table{ID: "EX", Columns: []string{"d=|I|", "v"}}
	tab.AddRow("1", "a|b")
	md := tab.Markdown()
	if !strings.Contains(md, `d=\|I\|`) || !strings.Contains(md, `a\|b`) {
		t.Errorf("pipes not escaped: %q", md)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{ID: "EX", Columns: []string{"a", "b"}}
	tab.AddRow("1", `has,comma and "quote"`)
	got := tab.CSV()
	want := "EX,a,b\nEX,1,\"has,comma and \"\"quote\"\"\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestE24PartitionShieldsOtherGroups(t *testing.T) {
	tab := table(t, "E24")
	// Row 0: rr exposes every input; row 1: partition shields half.
	if tab.Rows[0][2] != "0" {
		t.Errorf("rr should expose every input, %s untouched", tab.Rows[0][2])
	}
	if shielded := mustAtoi(t, tab.Rows[1][2]); shielded == 0 {
		t.Error("partitioning should shield the other groups entirely")
	}
}

func TestE23BoundsRespected(t *testing.T) {
	tab := table(t, "E23")
	for _, row := range tab.Rows {
		bound, err := strconv.ParseFloat(strings.TrimSpace(row[1]), 64)
		if err != nil {
			t.Fatalf("bound %q not numeric", row[1])
		}
		measured := mustAtoi(t, row[2])
		if float64(measured) > bound {
			t.Errorf("%s: measured %d exceeds calculus bound %f", row[0], measured, bound)
		}
	}
}

// TestE28TokenBucketDominates checks the H-ADM dominance claim: on every
// seed the token-bucket policy's delivered-cell p999 RQD
// stays below always-admit's, the bucket actually rejects cells under the
// 3.2x overload, and always-admit delivers everything it was offered.
func TestE28TokenBucketDominates(t *testing.T) {
	tab := table(t, "E28")
	always := map[string]int{}
	for _, row := range tab.Rows {
		if row[0] == "always" {
			always[row[1]] = mustAtoi(t, row[10])
			if row[2] != row[6] {
				t.Errorf("seed %s: always-admit delivered %s of %s offered", row[1], row[6], row[2])
			}
		}
	}
	if len(always) < 2 {
		t.Fatalf("dominance check needs >= 2 seeds, got %d", len(always))
	}
	for _, row := range tab.Rows {
		if row[0] == "always" {
			continue
		}
		base, ok := always[row[1]]
		if !ok {
			t.Fatalf("no always-admit row for seed %s", row[1])
		}
		if rejected := mustAtoi(t, row[4]); rejected == 0 {
			t.Errorf("seed %s: token bucket rejected nothing under 3.2x overload", row[1])
		}
		if tb := mustAtoi(t, row[10]); tb >= base {
			t.Errorf("seed %s: token-bucket p999 rqd %d not below always-admit %d", row[1], tb, base)
		}
	}
}

// TestE4ScalesWithN checks the headline shape: measured RQD grows
// proportionally with N.
func TestE4ScalesWithN(t *testing.T) {
	tab := table(t, "E4")
	var prev int
	for i, row := range tab.Rows {
		n := mustAtoi(t, row[0])
		measured := mustAtoi(t, row[2])
		if measured <= prev {
			t.Errorf("RQD must grow with N: row %d (N=%d) measured %d after %d", i, n, measured, prev)
		}
		// Within a factor of 2 of the (r'-1)N bound.
		bound, err := strconv.ParseFloat(strings.TrimSpace(row[4]), 64)
		if err != nil {
			t.Fatalf("bound %q not numeric", row[4])
		}
		if float64(measured) < bound/2 {
			t.Errorf("N=%d: measured %d too far below bound %f", n, measured, bound)
		}
		prev = measured
	}
}

// TestE5DecaysWithS checks the N/S shape.
func TestE5DecaysWithS(t *testing.T) {
	tab := table(t, "E5")
	prev := 1 << 30
	for _, row := range tab.Rows {
		measured := mustAtoi(t, row[3])
		if measured > prev {
			t.Errorf("RQD must decay as S grows: %v", tab.Rows)
		}
		prev = measured
	}
}

// TestE7StaysUnderU checks the Theorem 12 ceiling.
func TestE7StaysUnderU(t *testing.T) {
	tab := table(t, "E7")
	for _, row := range tab.Rows {
		u := mustAtoi(t, row[0])
		measured := mustAtoi(t, row[2])
		if measured > u {
			t.Errorf("u=%d: measured RQD %d exceeds the Theorem 12 ceiling", u, measured)
		}
	}
}

// TestE9FullUtilization checks the congested-period signature.
func TestE9FullUtilization(t *testing.T) {
	tab := table(t, "E9")
	for _, row := range tab.Rows {
		util := row[3]
		if !strings.HasPrefix(util, "1.0000") && !strings.HasPrefix(util, "0.99") {
			t.Errorf("%s h=%s: output utilization %s, want ~1.0 in a congested period", row[0], row[1], util)
		}
	}
}

// TestE10FloodGrows checks the Proposition 15 signature.
func TestE10FloodGrows(t *testing.T) {
	tab := table(t, "E10")
	var prevFlood int
	for i, row := range tab.Rows {
		flood := mustAtoi(t, row[1])
		steer := mustAtoi(t, row[2])
		shaped := mustAtoi(t, row[3])
		if i > 0 && flood <= prevFlood {
			t.Errorf("flood excess must grow with tau: %v", tab.Rows)
		}
		if steer > 2 {
			t.Errorf("Theorem-6 trace should stay near burstless, excess %d", steer)
		}
		if shaped > 4 {
			t.Errorf("shaped traffic must respect B=4, excess %d", shaped)
		}
		prevFlood = flood
	}
}

// TestE16SpeedupTwoMimics checks the CIOQ contrast.
func TestE16SpeedupTwoMimics(t *testing.T) {
	tab := table(t, "E16")
	for _, row := range tab.Rows {
		sp := mustAtoi(t, row[0])
		max := mustAtoi(t, row[2])
		if sp >= 2 && max != 0 {
			t.Errorf("speedup %d: max relative delay %d, want 0", sp, max)
		}
	}
}

// TestE17AllAligned checks that no deterministic algorithm escapes.
func TestE17AllAligned(t *testing.T) {
	tab := table(t, "E17")
	for _, row := range tab.Rows {
		if row[3] != "yes" {
			t.Errorf("algorithm %s escaped the steering adversary: RQD %s vs bound %s", row[0], row[1], row[2])
		}
	}
}

// TestE18RandomizedFarBelowDeterministic checks the randomization gap.
func TestE18RandomizedFarBelowDeterministic(t *testing.T) {
	tab := table(t, "E18")
	var max, det int
	for _, row := range tab.Rows {
		switch row[0] {
		case "max":
			max = mustAtoi(t, row[1])
		case "deterministic rr (same trace)":
			det = mustAtoi(t, row[1])
		}
	}
	if max*2 >= det {
		t.Errorf("randomized max %d should be far below deterministic %d", max, det)
	}
}

// TestE19RandomTieDisperses checks the determinism ablation.
func TestE19RandomTieDisperses(t *testing.T) {
	tab := table(t, "E19")
	det := mustAtoi(t, tab.Rows[0][3])
	randMax := mustAtoi(t, tab.Rows[1][3])
	if randMax >= det {
		t.Errorf("randomized tie-break max %d should beat deterministic %d", randMax, det)
	}
}

// TestE11ZeroAtSpeedupTwo checks the CPA baseline.
func TestE11ZeroAtSpeedupTwo(t *testing.T) {
	tab := table(t, "E11")
	for _, row := range tab.Rows {
		if row[4] == "yes" && row[2] != "0" {
			t.Errorf("K=%s S=%s: CPA RQD %s, want 0", row[0], row[1], row[2])
		}
	}
}
