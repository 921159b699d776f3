package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ppsim"
)

// flagSet returns the flags of the named subcommand, or nil.
func flagSet(name string) *flag.FlagSet {
	for _, sc := range subcommands {
		if sc.name == name {
			fs := flag.NewFlagSet(name, flag.ContinueOnError)
			sc.cmd(fs)
			return fs
		}
	}
	return nil
}

// TestFlagDefaults pins every subcommand's flag names and defaults: they are
// those of the per-artifact binaries the subcommands replaced, so a command
// line written for one of them means the same after the move.
func TestFlagDefaults(t *testing.T) {
	want := map[string]string{
		"sim": "admission= alg=rr algs=false bufcap=0 cap=-1 d=2 deadline=0 engine=auto fail-planes= " +
			"fault-policy=abort faultaware=false faults= h=2 k=8 load=0.6 n=16 percentiles=false " +
			"rprime=2 seed=1 series= shape=-1 slots=5000 stride=1 trace= traffic=bernoulli u=2 v=false workers=0",
		"exp": "csv=false debug-addr= list=false markdown=false run=",
		"diag": "alg=rr cap=0 format=csv k=2 load=0.6 n=5 out= percentiles=false rprime=2 seed=1 series=false " +
			"slots=2000 stride=1 traffic=steering",
		"trace":  "alg=rr gen= k=4 load=0.6 n=16 o= rprime=2 run= seed=1 slots=1000 stats=",
		"viz":    "alg=rr k=4 load=0.6 n=32 rprime=2 seed=1 slots=0 traffic=steering u=4 width=100",
		"bounds": "d=0 k=16 n=512 rprime=4 u=8",
	}
	for _, sc := range subcommands {
		set := flagSet(sc.name)
		var got []string
		set.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
		if g := strings.Join(got, " "); g != want[sc.name] {
			t.Errorf("%s flags:\n got %s\nwant %s", sc.name, g, want[sc.name])
		}
	}
	if len(subcommands) != len(want) {
		t.Errorf("%d subcommands, want %d", len(subcommands), len(want))
	}
}

// TestUnknownSubcommand checks a command line without a known subcommand
// exits 2 and lists the subcommands.
func TestUnknownSubcommand(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-n", "4"}} {
		var stderr strings.Builder
		if code := run(args, io.Discard, &stderr); code != 2 {
			t.Errorf("%q exited %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "subcommands: sim, exp, diag, trace, viz, bounds\n") {
			t.Errorf("%q: stderr does not list the subcommands:\n%s", args, stderr.String())
		}
	}
	if code := run([]string{"bounds", "-h"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("bounds -h exited %d, want 0", code)
	}
}

// TestConfigErrorsExitTwo: every subcommand that builds a run from the
// switch flags validates the configuration first (switchFlags.build), so a
// configuration no switch can have exits 2 with one line, as sim does. Each
// of these exited 1 when only sim validated before building.
func TestConfigErrorsExitTwo(t *testing.T) {
	unknownAlg := fmt.Sprintf("ppsim: unknown algorithm \"nosuch\" (one of %v)", ppsim.AlgorithmNames())
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"diag", "-series", "-alg", "nosuch", "-slots", "10"}, "ppsim diag: " + unknownAlg + "\n"},
		{[]string{"diag", "-percentiles", "-alg", "nosuch", "-slots", "10"}, "ppsim diag: " + unknownAlg + "\n"},
		{[]string{"diag", "-series", "-format", "xml", "-slots", "10"}, "ppsim diag: unknown series format \"xml\" (want csv or json)\n"},
		{[]string{"trace", "-gen", "steering", "-k", "0"}, "ppsim trace: fabric: K must be positive, got 0\n"},
		{[]string{"trace", "-gen", "steering", "-n", "8", "-k", "4", "-alg", "nosuch", "-slots", "10"}, "ppsim trace: " + unknownAlg + "\n"},
	} {
		var stdout, stderr strings.Builder
		code := run(tc.args, &stdout, &stderr)
		if code != 2 || stderr.String() != tc.want || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 2, stderr %q", tc.args, code, stderr.String(), stdout.String(), tc.want)
		}
	}
}

// docs are the documents whose ppsim command lines the tests below check.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "MODEL.md", "benchmark/README.md", ".claude/skills/verify/SKILL.md"}

// docCommand is one `ppsim <subcommand> …` command line found in a document.
type docCommand struct {
	doc, line, subcommand, args string
}

// docCommands returns every ppsim command line in docs, a shell line
// continued with a backslash joined into one command.
func docCommands(t *testing.T) []docCommand {
	t.Helper()
	command := regexp.MustCompile("(?m)(?:^[ \t]*|[`/])ppsim[ \t]+([a-z]+)([^`\n#]*)")
	var out []docCommand
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range command.FindAllStringSubmatch(strings.ReplaceAll(string(text), "\\\n", " "), -1) {
			out = append(out, docCommand{doc: doc, line: m[0], subcommand: m[1], args: m[2]})
		}
	}
	return out
}

// TestDocsNameLiveFlags is the command-line twin of the root package's
// TestDocsNameLiveOptions: it fails when a document passes a ppsim
// subcommand a flag that subcommand's FlagSet does not register.
func TestDocsNameLiveFlags(t *testing.T) {
	flagRef := regexp.MustCompile(`(?:^|\s)-([a-z][\w-]*)`)
	for _, c := range docCommands(t) {
		set := flagSet(c.subcommand)
		if set == nil {
			continue // TestDocsNameLiveSubcommands reports it
		}
		for _, f := range flagRef.FindAllStringSubmatch(c.args, -1) {
			if set.Lookup(f[1]) == nil {
				t.Errorf("%s passes -%s, which ppsim %s does not take: %q", c.doc, f[1], c.subcommand, c.line)
			}
		}
	}
}

// TestDocsNameLiveSubcommands fails when a document runs a ppsim subcommand
// that does not exist, and when the docs, the Go sources or the build files
// still name one of the retired per-artifact binaries.
func TestDocsNameLiveSubcommands(t *testing.T) {
	const root = "../.."
	for _, c := range docCommands(t) {
		if flagSet(c.subcommand) == nil {
			t.Errorf("%s runs unknown subcommand %q: %q", c.doc, c.subcommand, c.line)
		}
	}

	retired := regexp.MustCompile(`\bpps(sim|exp|diag|trace|viz|bounds)\b`)
	files := append(docs, ".github/workflows/ci.yml", ".gitignore")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (d.Name() == "benchmark" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, strings.TrimPrefix(path, root+"/"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		text, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range retired.FindAllString(string(text), -1) {
			t.Errorf("%s names the retired binary %s; it is ppsim %s now", file, name, strings.TrimPrefix(name, "pps"))
		}
	}
}
