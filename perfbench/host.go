package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostRecord identifies where and on what a result was measured, so every
// number can be read against the core count it ran on.
type hostRecord struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
}

func newHostRecord(workload string, seed uint64, trace bool) hostRecord {
	return hostRecord{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, falling back to
// the architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the go command stamped into the binary, or
// "unknown" when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
