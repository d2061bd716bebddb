package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/cpu"
)

// fingerprint identifies the machine and build a result was measured
// on. Results with different fingerprints are not comparable.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	AVX2       bool   `json:"avx2"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		AVX2:       cpu.HasAVX2(),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				fp.GOAMD64 = s.Value
			case "vcs.revision":
				fp.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
		fp.Revision += modified
	}
	return fp
}

// cpuModel is the first "model name" line of /proc/cpuinfo.
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

// machineID is a short hash of everything but the revision: results
// with different machine IDs are not comparable, while one machine's
// results for two revisions are.
func (fp fingerprint) machineID() string {
	fp.Revision = ""
	b, _ := json.Marshal(fp)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:4])
}
