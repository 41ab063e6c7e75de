package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// machine is what a reader needs before comparing two results files:
// the numbers mean nothing across different core counts or toolchains.
type machine struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GitRev     string  `json:"git_rev"`
	When       string  `json:"when"`
	Fixture    fixture `json:"fixture"`
}

// fixture records the world every workload shares.
type fixture struct {
	Scale         float64 `json:"scale"`
	Seed          uint64  `json:"seed"`
	MeanDownloads float64 `json:"mean_downloads"`
	Scenarios     string  `json:"scenarios"`
	Shards        int     `json:"shards"`
	Workers       int     `json:"workers"`
	CompactAuto   bool    `json:"lake_compact_auto"`
	ReplaySlices  int     `json:"replay_slices"`
}

func machineContext() machine {
	spec := fixtureSpec()
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitRev:     gitRev(),
		When:       time.Now().UTC().Format(time.RFC3339),
		Fixture: fixture{
			Scale: spec.Scale, Seed: spec.Seed, MeanDownloads: spec.MeanDownloads, Scenarios: "all",
			Shards: spec.Shards, Workers: spec.Workers,
			CompactAuto: lakeOptions().Compact.Auto, ReplaySlices: replayGrid,
		},
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// gitRev is the revision the go tool stamped into the binary; a
// checkout that is not a git repository has none.
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// resultsFile is what a run writes and compare reads: the machine
// context and every run made, each with its seed and sample counts.
type resultsFile struct {
	Context machine   `json:"context"`
	Runs    []*result `json:"runs"`
}

func (f *resultsFile) write(path string) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, err
	}
	return &f, nil
}
