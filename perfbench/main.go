// Command perfbench is the repository benchmark. It runs the serving stack
// (internal/serve, and internal/cluster for the replicated workload)
// in-process over loopback HTTP, drives one workload from inputs that
// datasets.Load generates from the given seed, checks that the served
// consensus is correct, and prints one JSON result line.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload trickle --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json gives each one's reason):
//
//   - trickle: open loop, two image tenants streamed in arrival order at
//     500 answers/s each in 16-answer NDJSON POSTs from one connection,
//     consensus GETs round robin at 60/s from a second connection.
//   - backfill: closed loop, six entity tenants (1450 labels) pushed by two
//     posters in 256-answer bodies, one tenant at a time, in load rounds on
//     fresh data directories until the run's seconds have passed and at
//     least four rounds ran; each round ends with 256 closed-loop consensus
//     GETs and one crash/reopen cycle.
//   - replicated: open loop through a cluster router to a primary and one
//     journal-shipping follower, both with SyncJournal; one image tenant
//     (scale 0.3) at 250 answers/s in 4-answer POSTs, GETs at 60/s.
//
// Every workload sets up nine times (setup_s is the median of the stack
// open and job creation; inputs are generated once, outside it) and checks
// its last round with the correctness gate. recovery_s is the median over
// crash/reopen cycles: 19 at the end of trickle, 41 at the end of
// replicated (each of its cycles is short), one per round of the closed
// loop. Visibility is measured from a POST's ack to the first
// published snapshot covering the tenant's acked answers, watched through
// Job.Snapshot() every 0.5ms. Open-loop latencies are timed from each
// request's due time.
//
// With --trace 1 the workload runs twice with the same seed, untraced and
// then traced, and the result holds the per-layer metrics of the traced
// run, each layer's self time from the spans the benchmark records around
// its calls, and trace_overhead.<metric>, the traced minus the untraced
// end-to-end value. Spans are written to
// <workdir>/traces/<workload>-seed<seed>.json.
//
// The last line of standard output is the result object; the line before
// it holds the provenance, sample counts, the load generator's
// lateness (lag_p99_ms), wall time per phase, every recovery cycle's time
// and any correctness misses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"cpa/internal/cpufeat"
	"cpa/internal/mathx"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	workdir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: trickle, backfill or replicated")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "load time one run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for data and trace files")
	flag.Parse()
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload trickle|backfill|replicated, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	info, out, err := execute(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range []any{info, out} {
		raw, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(raw))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func provenance(o options) map[string]any {
	return map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "backend": mathx.ActiveBackend(), "cpu": cpufeat.Summary(),
	}
}

// execute runs the workload (twice when traced) and assembles the info
// line and the result line.
func execute(w workload, o options) (map[string]any, *output, error) {
	prov := provenance(o)
	res, err := runOnce(w, o.seed, o.seconds, o.workdir, nil)
	if err != nil {
		return nil, nil, err
	}
	ms := res.e2e
	info := map[string]any{"provenance": prov, "samples": res.samples, "phases_s": res.phases, "lag_p99_ms": res.lagP99Ms,
		"recovery_cycles_s": res.recoveryS}
	attempted, failed, misses := res.attempted, res.failed, res.misses
	if o.trace == 1 {
		tr := newTracer()
		traced, err := runOnce(w, o.seed, o.seconds, o.workdir, tr)
		if err != nil {
			return nil, nil, err
		}
		ms = traced.layers
		for i, m := range traced.e2e {
			ms = append(ms, metric{"trace_overhead." + m.name, m.unit, m.value - res.e2e[i].value})
		}
		attempted += traced.attempted
		failed += traced.failed
		misses = append(misses, traced.misses...)
		info["traced_samples"] = traced.samples
		info["traced_phases_s"] = traced.phases
		if err := tr.write(filepath.Join(o.workdir, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)), prov); err != nil {
			return nil, nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	info["misses"] = misses
	out := &output{Correct: len(misses) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s is not finite", m.name)
		}
		out.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	return info, out, nil
}
