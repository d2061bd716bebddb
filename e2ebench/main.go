// Command e2ebench is the repository's end-to-end benchmark: Algorithm 2
// of Baksi et al. in process (workload gimli7) and the distinguisher
// service over loopback HTTP, direct (serve) and through the cluster
// router (routed). It runs in process against the public APIs of
// internal/core, nn, serve, ledger and cluster, at the defaults
// cmd/distinguisher and cmd/served ship, checks every answer, and
// prints each metric by name with its unit and sample count. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end list, measured with
// tracing off; with --trace 1 they are the per-layer list, from traced
// windows that alternate with untraced ones so the tracing overhead is
// printed alongside. Run it from the repository root through run.sh:
//
//	bash e2ebench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// processStart is taken after every imported package has initialised,
// so setup_s covers program start-up.
var processStart = time.Now()

// outDir holds results and spans, relative to the repository root the
// benchmark runs from.
const outDir = ".bench_build/e2ebench"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, " | "))
	seed := fs.Uint64("seed", 1, "workload seed: models, oracle games and request bodies derive from it")
	seconds := fs.Int("seconds", 10, "seconds to measure (a traced run measures this long untraced and again traced)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "e2ebench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	r := &runner{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		ops:      newTally(),
		layers:   map[string]float64{},
	}
	if r.traced {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	r.dir = dir
	defer os.RemoveAll(dir)

	switch r.workload {
	case "gimli7":
		err = r.gimli7()
	case "serve":
		err = r.serving(false)
	case "routed":
		err = r.serving(true)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		for _, l := range r.errs.lines() {
			fmt.Fprintln(stderr, "  ", l)
		}
		return 1
	}
	fp, build := machineFingerprint(), buildID()
	r.compareWithEarlier(fp, build)
	if err := r.report(stdout, fp, build); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// savedResult is what a run leaves in outDir for later runs to compare
// against.
type savedResult struct {
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	Trace       bool                 `json:"trace"`
	Fingerprint fingerprint          `json:"fingerprint"`
	MachineID   string               `json:"machine_id"`
	Build       string               `json:"build"`
	Identity    identity             `json:"identity"`
	EndToEnd    map[string]float64   `json:"end_to_end"`
	Samples     map[string]int       `json:"samples"`
	Traced      map[string]float64   `json:"end_to_end_traced,omitempty"`
	PerLayer    map[string]float64   `json:"per_layer,omitempty"`
	Counts      map[string]kindCount `json:"counts"`
	Notes       []string             `json:"notes"`
}

func resultPath(workload string, seed uint64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t))
}

// buildID hashes the running binary, so results can tell runs of the
// same build from runs of another.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// compareWithEarlier checks that an earlier run of the same build,
// workload and seed, traced or not, produced the same val_accuracy and
// GameResult, and labels an earlier result measured on another machine.
func (r *runner) compareWithEarlier(fp fingerprint, build string) {
	for _, trace := range []bool{false, true} {
		raw, err := os.ReadFile(resultPath(r.workload, r.seed, trace))
		if err != nil {
			continue
		}
		var old savedResult
		if err := json.Unmarshal(raw, &old); err != nil {
			continue
		}
		if old.MachineID != fp.machineID() {
			r.note("earlier trace=%v result was measured on another machine (%s, not %s): its timings are not comparable",
				trace, old.MachineID, fp.machineID())
		}
		if old.Build != build {
			continue // another build may change numerics on purpose
		}
		var err2 error
		if old.Identity != r.identity {
			err2 = fmt.Errorf("this run %+v, earlier trace=%v run %+v", r.identity, trace, old.Identity)
		}
		r.check("val_accuracy and GameResult repeat across runs", err2)
	}
}

// report prints every metric by name with unit and sample count, the
// traced overheads, the checks, and finally the JSON result line.
func (r *runner) report(w io.Writer, fp fingerprint, build string) error {
	mode := "untraced (end-to-end metrics)"
	if r.traced {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "e2ebench %s, seed %d, %s measured, %s\n", r.workload, r.seed, r.seconds, mode)
	fmt.Fprintf(w, "fingerprint %s: nproc=%d cpu=%q GOMAXPROCS=%d GOAMD64=%s avx2=%v go=%s revision=%s build=%s\n",
		fp.machineID(), fp.NProc, fp.CPUModel, fp.GOMAXPROCS, fp.GOAMD64, fp.AVX2, fp.GoVersion, fp.Revision, build)
	fmt.Fprintln(w, "end-to-end:")
	for _, m := range endToEnd {
		line := fmt.Sprintf("  %-20s %12.4f %-8s n=%d", m.Name, r.e2e[m.Name], m.Unit, r.samples[m.Name])
		if r.traced {
			base, tv := r.e2e[m.Name], r.e2eTraced[m.Name]
			over := math.NaN()
			if base != 0 {
				over = 100 * (tv - base) / base
			}
			line += fmt.Sprintf("   traced %12.4f n=%-6d overhead %+.1f%%", tv, r.samplesTraced[m.Name], over)
		}
		fmt.Fprintln(w, line)
	}
	if r.traced {
		fmt.Fprintln(w, "per-layer (traced windows):")
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, r.layers[m.Name], m.Unit)
		}
		if r.workload != "gimli7" {
			fmt.Fprintln(w, "serving layers (report only):")
			for _, m := range servingLayerTimes {
				if r.workload == "routed" || !strings.HasPrefix(m.Name, "cluster.") {
					fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, r.layers[m.Name], m.Unit)
				}
			}
		}
		if err := r.tr.write(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", r.workload, r.seed))); err != nil {
			return err
		}
	}
	counts := r.ops.snapshot()
	fmt.Fprintln(w, "operations:")
	for _, k := range sortedKeys(counts) {
		c := counts[k]
		fmt.Fprintf(w, "  %-12s sent %6d  succeeded %6d  failed %d\n", k, c.Sent, c.Succeeded, c.Failed)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, l := range r.errs.lines() {
		fmt.Fprintln(w, "FAILED:", l)
	}

	attempted, failed := r.ops.totals()
	list, values := endToEnd, r.e2e
	if r.traced {
		list, values = perLayer, r.layers
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	out.Correct = failed == 0

	saved := savedResult{
		Workload: r.workload, Seed: r.seed, Trace: r.traced,
		Fingerprint: fp, MachineID: fp.machineID(), Build: build, Identity: r.identity,
		EndToEnd: r.e2e, Samples: r.samples, Traced: r.e2eTraced, PerLayer: r.layers,
		Counts: counts, Notes: r.notes,
	}
	raw, err := json.MarshalIndent(saved, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath(r.workload, r.seed, r.traced), raw, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return errors.Join(errors.New("encoding the result line"), err)
	}
	fmt.Fprintln(w, string(line))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
