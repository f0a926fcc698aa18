// Command ab compares two commits on the benchmark, on this machine.
// It checks both commits out as git worktrees under a temporary
// directory, puts the current benchmark directory into each (so both
// sides run identical benchmark code), builds both, and runs the pairs
// in alternating order: pair i runs both sides with seed 1000+i for
// BENCHMARK.json's run_seconds, the base first on even pairs and the
// candidate first on odd ones. For each workload and end-to-end metric
// it prints both sides' median and quartiles, the share of pairs the
// candidate won, and a verdict.
//
// Run it from the repository root through ab.sh, which sets up the
// toolchain the way run.sh does:
//
//	bash lsbench/ab.sh -base HEAD~1 -cand HEAD
//
// The comparison refuses to mix results whose stamps differ in
// anything but the commit, the source digest and, across pairs, the
// seed: results from different machines, Go versions, GOMAXPROCS or
// workload parameters are not comparable.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"

	"repro/lsbench/compare"
)

type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// seed0 is the seed of the first pair; minPairs the fewest pairs the
// verdicts are defined for.
const (
	seed0    = 1000
	minPairs = 10
)

type runResult struct {
	stamp   map[string]any
	correct bool
	failed  int64
	metrics map[string]float64
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

func run() error {
	base := flag.String("base", "HEAD~1", "baseline commit")
	cand := flag.String("cand", "HEAD", "candidate commit")
	pairs := flag.Int("pairs", minPairs, "pairs of runs per workload (at least 10)")
	only := flag.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	flag.Parse()
	if *pairs < minPairs {
		return fmt.Errorf("-pairs %d: the verdicts need at least %d pairs", *pairs, minPairs)
	}

	var sp spec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("read BENCHMARK.json (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	secs := sp.RunSeconds
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}

	tmp, err := os.MkdirTemp("", "lsbench-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	sides := []struct{ label, rev, dir, bin, sha string }{
		{label: "base", rev: *base}, {label: "cand", rev: *cand},
	}
	for i := range sides {
		s := &sides[i]
		s.sha, err = git("rev-parse", s.rev+"^{commit}")
		if err != nil {
			return err
		}
		s.dir = filepath.Join(tmp, s.label)
		if _, err := git("worktree", "add", "--detach", s.dir, s.sha); err != nil {
			return err
		}
		defer git("worktree", "remove", "--force", s.dir)
		if err := copyBench(s.dir); err != nil {
			return err
		}
		s.bin = filepath.Join(tmp, s.label+".bin")
		// -trimpath keeps the worktree paths out of the binaries: with
		// them, two builds of one commit differed in code layout, and an
		// A/A comparison read a 7 % setup_s gain.
		build := exec.Command("go", "build", "-trimpath", "-o", s.bin, ".")
		build.Dir = filepath.Join(s.dir, "lsbench")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build %s (%s): %w", s.label, s.rev, err)
		}
		fmt.Printf("%s = %s (%s)\n", s.label, s.rev, s.sha[:12])
	}

	exit := 0
	for _, w := range names {
		var res [2][]runResult
		for i := 0; i < *pairs; i++ {
			seed := seed0 + uint64(i)
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, k := range order {
				r, err := runOnce(sides[k].bin, sides[k].dir, sides[k].sha, w, seed, secs)
				if err != nil {
					return fmt.Errorf("%s %s seed %d: %w", sides[k].label, w, seed, err)
				}
				res[k] = append(res[k], r)
			}
			fmt.Fprintf(os.Stderr, "%s: pair %d/%d done\n", w, i+1, *pairs)
		}
		if err := checkStamps(res); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		fmt.Printf("\nworkload %s (%d pairs, %d s each)\n", w, *pairs, secs)
		for k, side := range sides {
			bad := 0
			for _, r := range res[k] {
				if !r.correct || r.failed > 0 {
					bad++
				}
			}
			if bad > 0 {
				fmt.Printf("  %s: %d runs incorrect or with failures\n", side.label, bad)
				exit = 1
			}
		}
		for _, m := range sp.EndToEnd {
			var b, c []float64
			for i := range res[0] {
				b = append(b, res[0][i].metrics[m.Name])
				c = append(c, res[1][i].metrics[m.Name])
			}
			j := compare.Judge(b, c, m.Better == "higher", m.Bound)
			fmt.Printf("  %-16s bound %-5g %s\n", m.Name, m.Bound, j)
			if j.Verdict == compare.Worse {
				exit = 1
			}
		}
	}
	if exit != 0 {
		return errors.New("candidate incorrect or worse beyond a bound")
	}
	return nil
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, ee.Stderr)
		}
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// copyBench replaces the worktree's benchmark directory with the
// current one.
func copyBench(dst string) error {
	target := filepath.Join(dst, "lsbench")
	if err := os.RemoveAll(target); err != nil {
		return err
	}
	return filepath.WalkDir("lsbench", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		out := filepath.Join(dst, p)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(out, b, 0o644)
	})
}

func runOnce(bin, dir, sha, workload string, seed uint64, secs int) (runResult, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(secs), "--trace", "0")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "LSBENCH_COMMIT="+sha)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r runResult
	for _, l := range lines {
		if js, ok := strings.CutPrefix(l, "stamp "); ok {
			if err := json.Unmarshal([]byte(js), &r.stamp); err != nil {
				return r, fmt.Errorf("parse stamp: %w", err)
			}
		}
	}
	var last struct {
		Correct bool  `json:"correct"`
		Failed  int64 `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return r, fmt.Errorf("parse result: %w", err)
	}
	if r.stamp == nil {
		return r, errors.New("no stamp line")
	}
	r.correct, r.failed = last.Correct, last.Failed
	r.metrics = map[string]float64{}
	for k, v := range last.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}

// checkStamps refuses results that must not be compared. Within a pair
// only the code may differ; across pairs the seed may differ too.
// Measured parameters (capacity sizes depend on the seed's traffic)
// are compared within pairs only.
func checkStamps(res [2][]runResult) error {
	strip := func(st map[string]any, keepSeed bool) map[string]any {
		out := map[string]any{}
		for k, v := range st {
			switch k {
			case "commit", "source_sha256":
				continue
			case "seed", "params":
				if !keepSeed {
					continue
				}
			}
			out[k] = v
		}
		return out
	}
	ref := strip(res[0][0].stamp, false)
	for i := range res[0] {
		a, b := res[0][i].stamp, res[1][i].stamp
		if !reflect.DeepEqual(strip(a, true), strip(b, true)) {
			return fmt.Errorf("pair %d: stamps differ beyond the code:\n  %v\n  %v", i, a, b)
		}
		if !reflect.DeepEqual(strip(a, false), ref) {
			return fmt.Errorf("pair %d: stamp differs from pair 0 beyond the seed:\n  %v\n  %v", i, a, res[0][0].stamp)
		}
	}
	return nil
}
