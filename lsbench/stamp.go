package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp records where and on what a result was measured. Results whose
// stamps differ in anything but the seed and the code identity must not
// be compared (see ab/main.go).
type stamp struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Source     string         `json:"source_sha256"`
	Params     map[string]any `json:"params"`
}

func newStamp(o options, params map[string]any) stamp {
	return stamp{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Source:     sourceDigest(),
		Params:     params,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: LSBENCH_COMMIT when the A/B helper
// sets it, else the checkout's git HEAD, else "unknown" (a checkout
// without git metadata; source_sha256 still identifies the code).
func commit() string {
	if c := os.Getenv("LSBENCH_COMMIT"); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and go.mod of the module under
// test (the working directory's tree, without this benchmark's own
// directory), so two results can be tied to the same code even where
// no git metadata exists.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || p == benchDir) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || p == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// benchDir is this benchmark's directory, relative to the repository
// root the benchmark runs from.
const benchDir = "lsbench"
