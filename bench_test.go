// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment, backed by internal/experiments), plus
// ablation benches for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark iteration performs the complete experiment at Quick scale;
// the cpabench CLI runs the same experiments at standard/paper scale.
package cpa

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cpa/internal/answers"
	"cpa/internal/baselines"
	"cpa/internal/core"
	"cpa/internal/datasets"
	"cpa/internal/experiments"
	"cpa/internal/metrics"
	"cpa/internal/simulate"
)

func newBenchRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func benchSettings() experiments.Settings {
	return experiments.Settings{DataScale: 0.08, Runs: 1, Seed: 1}
}

func runExperiment(b *testing.B, runner experiments.Runner) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := runner(benchSettings()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Motivating(b *testing.B) { runExperiment(b, experiments.RunTable1Motivating) }

func BenchmarkTable3DatasetStats(b *testing.B) { runExperiment(b, experiments.RunTable3DatasetStats) }

func BenchmarkTable4OverallAccuracy(b *testing.B) {
	runExperiment(b, experiments.RunTable4OverallAccuracy)
}

func BenchmarkFig3Sparsity(b *testing.B) { runExperiment(b, experiments.RunFig3Sparsity) }

func BenchmarkFig4Spammers(b *testing.B) { runExperiment(b, experiments.RunFig4Spammers) }

func BenchmarkFig5LabelDependency(b *testing.B) {
	runExperiment(b, experiments.RunFig5LabelDependency)
}

func BenchmarkFig6DataArrival(b *testing.B) { runExperiment(b, experiments.RunFig6DataArrival) }

func BenchmarkTable5OnlineAccuracy(b *testing.B) {
	runExperiment(b, experiments.RunTable5OnlineAccuracy)
}

func BenchmarkFig7Runtime(b *testing.B) { runExperiment(b, experiments.RunFig7Runtime) }

func BenchmarkFig8Ablation(b *testing.B) { runExperiment(b, experiments.RunFig8Ablation) }

func BenchmarkFig9Communities(b *testing.B) { runExperiment(b, experiments.RunFig9Communities) }

func BenchmarkFig10WorkerTypes(b *testing.B) { runExperiment(b, experiments.RunFig10WorkerTypes) }

// ---------------------------------------------------------------------------
// Component benchmarks: the individual inference engines on a fixed workload
// ---------------------------------------------------------------------------

func benchDataset(b *testing.B, name string) *Dataset {
	b.Helper()
	ds, _, err := datasets.Load(name, 0.08, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func benchAggregate(b *testing.B, agg Aggregator, ds *Dataset) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Aggregate(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPABatchVI(b *testing.B) {
	benchAggregate(b, New(Options{Seed: 1}), benchDataset(b, "image"))
}

// BenchmarkFit measures one full batch Fit (no prediction) at the image
// profile, full scale — the parameter-engine hot path. Allocations per
// iteration are the headline number for the flat-buffer refactor.
func BenchmarkFit(b *testing.B) {
	ds, _, err := datasets.Load("image", 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := core.NewModel(core.Config{Seed: 1}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := model.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitStream is the SVI counterpart of BenchmarkFit: one single-pass
// streaming fit over the full-scale image profile.
func BenchmarkFitStream(b *testing.B) {
	ds, _, err := datasets.Load("image", 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := core.NewModel(core.Config{Seed: 1}, ds.NumItems, ds.NumWorkers, ds.NumLabels)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := model.FitStream(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// publishBenchSetup streams `mul` copies of the image stream into a model
// through the serving-shaped loop — PartialFit a mini-batch, publish a
// snapshot — leaving a warm publisher at the target stream length.
func publishBenchSetup(b *testing.B, mul int) (*core.Model, *core.Publisher, [][]answers.Answer) {
	b.Helper()
	ds, _, err := datasets.Load("image", 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Seed: 1, BatchSize: 256}
	model, err := core.NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		b.Fatal(err)
	}
	all := ds.Answers()
	var batches [][]answers.Answer
	for start := 0; start < len(all); start += cfg.BatchSize {
		end := start + cfg.BatchSize
		if end > len(all) {
			end = len(all)
		}
		batches = append(batches, all[start:end])
	}
	pub := core.NewPublisher(model)
	for rep := 0; rep < mul; rep++ {
		for _, batch := range batches {
			if err := model.PartialFit(batch); err != nil {
				b.Fatal(err)
			}
			if _, _, err := pub.Publish(false); err != nil {
				b.Fatal(err)
			}
		}
	}
	return model, pub, batches
}

// BenchmarkPublish measures the serving layer's per-round snapshot cost
// under backlog (incremental publication) at 1× and 10× stream length. The
// headline metric is publish-ns/op — the publish call alone, excluding the
// PartialFit that feeds it; flat across the sub-benchmarks is the tentpole
// claim (per-round publish cost independent of stream length). Each timed
// iteration ingests one more batch, so the model is re-derived (outside the
// timer) every 8·mul iterations to keep the measured stream length within
// ~20% of its nominal point at any -benchtime.
func BenchmarkPublish(b *testing.B) {
	for _, mul := range []int{1, 10} {
		b.Run(fmt.Sprintf("stream=%dx", mul), func(b *testing.B) {
			refreshEvery := 8 * mul
			model, pub, batches := publishBenchSetup(b, mul)
			b.ReportAllocs()
			b.ResetTimer()
			var pubNs int64
			for i := 0; i < b.N; i++ {
				if i > 0 && i%refreshEvery == 0 {
					b.StopTimer()
					model, pub, batches = publishBenchSetup(b, mul)
					b.StartTimer()
				}
				if err := model.PartialFit(batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if _, _, err := pub.Publish(false); err != nil {
					b.Fatal(err)
				}
				pubNs += time.Since(start).Nanoseconds()
			}
			b.ReportMetric(float64(pubNs)/float64(b.N), "publish-ns/op")
		})
	}
}

// BenchmarkPublishFull is the caught-up publication path: a Clone plus the
// complete FinalizeOnline pipeline per round. O(stream) per round by
// construction — the comparison point that shows what the incremental mode
// saves.
func BenchmarkPublishFull(b *testing.B) {
	for _, mul := range []int{1, 10} {
		b.Run(fmt.Sprintf("stream=%dx", mul), func(b *testing.B) {
			_, pub, _ := publishBenchSetup(b, mul)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := pub.Publish(true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCPAOnlineSVI(b *testing.B) {
	benchAggregate(b, NewOnline(Options{Seed: 1}), benchDataset(b, "image"))
}

func BenchmarkCPAParallel(b *testing.B) {
	ds := benchDataset(b, "image")
	for _, p := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			benchAggregate(b, New(Options{Seed: 1, Parallelism: p}), ds)
		})
	}
}

func BenchmarkBaselineMV(b *testing.B) {
	benchAggregate(b, NewMajorityVote(), benchDataset(b, "image"))
}

func BenchmarkBaselineEM(b *testing.B) {
	benchAggregate(b, NewDawidSkene(), benchDataset(b, "image"))
}

func BenchmarkBaselineCBCC(b *testing.B) {
	benchAggregate(b, NewCBCC(), benchDataset(b, "image"))
}

// ---------------------------------------------------------------------------
// Ablation benches for the design choices documented in DESIGN.md §5.
// Each reports the achieved F1 as a custom metric alongside the runtime.
// ---------------------------------------------------------------------------

func reportF1(b *testing.B, agg Aggregator, ds *Dataset) {
	b.Helper()
	var pr PR
	for i := 0; i < b.N; i++ {
		pred, err := agg.Aggregate(ds)
		if err != nil {
			b.Fatal(err)
		}
		got, err := Evaluate(ds, pred)
		if err != nil {
			b.Fatal(err)
		}
		pr = got
	}
	b.ReportMetric(pr.F1(), "F1")
}

// BenchmarkAblationGrounding compares the imputed-truth grounding (D2)
// against the literal Eq. 7 (ground truth only, which is vacuous without
// test questions).
func BenchmarkAblationGrounding(b *testing.B) {
	ds := benchDataset(b, "image")
	b.Run("imputed", func(b *testing.B) { reportF1(b, New(Options{Seed: 1}), ds) })
	b.Run("literal-eq7", func(b *testing.B) { reportF1(b, New(Options{Seed: 1, GroundTruthOnly: true}), ds) })
}

// BenchmarkAblationPhiEvidence compares the answer-evidence term in the
// cluster update (D1, matching Appendix C) against the literal Eq. 3.
func BenchmarkAblationPhiEvidence(b *testing.B) {
	ds := benchDataset(b, "image")
	b.Run("appendix-c", func(b *testing.B) { reportF1(b, New(Options{Seed: 1}), ds) })
	b.Run("literal-eq3", func(b *testing.B) { reportF1(b, New(Options{Seed: 1, LiteralPhiUpdate: true}), ds) })
}

// BenchmarkAblationTruncation sweeps the stick-breaking truncations (the
// paper: "can safely be set to large values").
func BenchmarkAblationTruncation(b *testing.B) {
	ds := benchDataset(b, "image")
	for _, mt := range []struct{ m, t int }{{3, 5}, {10, 20}, {25, 50}} {
		b.Run(fmt.Sprintf("M=%d,T=%d", mt.m, mt.t), func(b *testing.B) {
			reportF1(b, New(Options{Seed: 1, MaxCommunities: mt.m, MaxClusters: mt.t}), ds)
		})
	}
}

// BenchmarkAblationForgettingRate sweeps the SVI forgetting rate r (the
// paper finds r ∈ [0.85, 0.9] best).
func BenchmarkAblationForgettingRate(b *testing.B) {
	ds := benchDataset(b, "image")
	for _, r := range []float64{0.6, 0.75, 0.875, 1.0} {
		b.Run(fmt.Sprintf("r=%.3f", r), func(b *testing.B) {
			reportF1(b, NewOnline(Options{Seed: 1, ForgettingRate: r}), ds)
		})
	}
}

// BenchmarkAblationPrediction compares greedy search (§3.4) with the capped
// exhaustive subset scan on the small-vocabulary movie dataset.
func BenchmarkAblationPrediction(b *testing.B) {
	ds := benchDataset(b, "movie")
	b.Run("greedy", func(b *testing.B) { reportF1(b, New(Options{Seed: 1}), ds) })
	b.Run("exhaustive", func(b *testing.B) {
		reportF1(b, New(Options{Seed: 1, ExhaustivePrediction: true}), ds)
	})
}

// BenchmarkAblationSparsity re-runs the Fig. 8 model ablation under heavy
// sparsity, where the paper's claimed advantages of communities (R1) and
// clusters (R3) are most visible.
func BenchmarkAblationSparsity(b *testing.B) {
	base := benchDataset(b, "image")
	ds := simulate.Sparsify(base, 0.6, newBenchRand(3))
	b.Run("CPA", func(b *testing.B) { reportF1(b, New(Options{Seed: 1}), ds) })
	b.Run("NoZ", func(b *testing.B) { reportF1(b, core.NewNoZAggregator(core.Config{Seed: 1}), ds) })
	b.Run("NoL", func(b *testing.B) { reportF1(b, core.NewNoLAggregator(core.Config{Seed: 1}), ds) })
	b.Run("cBCC", func(b *testing.B) { reportF1(b, baselines.NewCBCC(), ds) })
}

// BenchmarkMetricsEvaluate measures the evaluation substrate itself.
func BenchmarkMetricsEvaluate(b *testing.B) {
	ds := benchDataset(b, "image")
	pred, err := New(Options{Seed: 1}).Aggregate(ds)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.Evaluate(ds, pred); err != nil {
			b.Fatal(err)
		}
	}
}
