// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the real code (cluster, back-ends, mirrors, the
// front-end core, the data structures and the TCP serving tier), checks
// every answer against its own model, and prints one JSON result line.
//
//	perfbench --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer ledger. See README.md for what each
// workload exercises and bypasses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	// The whole simulated deployment (front-end, back-end replayers,
	// mirrors, server goroutines) runs on one Go processor. On a small
	// host shared with other tenants, two processors made the host
	// figures bimodal from run to run (cross-CPU wake-ups of the
	// spin-then-park doorbells), with ops/s spreads of 11–20% on
	// serve-hot; on one processor the goroutines interleave and the
	// spread falls to 3–6%. The back-end replayers still compete with the
	// driving front-end for that processor.
	runtime.GOMAXPROCS(1)
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same op stream")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in host seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
	out := fs.String("out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		outDir:  *out,
		spanTag: fmt.Sprintf("%s-seed%d", *name, *seed),
	}
	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(wl, cfg)
	} else {
		res, err = endToEndRun(wl, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res.print(os.Stdout)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed their output check\n", *name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// notes are printed as human-readable lines before the JSON line:
	// every metric with its clock, plus figures that are not metrics.
	notes []string
}

func (r result) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats and strings reach here
	}
	fmt.Fprintln(w, string(b))
}

// writeSpans stores the benchmark-side spans of a traced run.
func writeSpans(dir, tag string, sl *spanLog) (string, error) {
	if err := os.MkdirAll(filepath.Join(dir, "spans"), 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans", tag+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := sl.writeJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
