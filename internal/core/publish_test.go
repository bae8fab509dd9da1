package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cpa/internal/answers"
	"cpa/internal/datasets"
)

// publishStream loads a shuffled image-profile stream — the serve-shaped
// workload: interleaved items and workers in arrival order.
func publishStream(t testing.TB, seed int64) *answers.Dataset {
	t.Helper()
	ds, _, err := datasets.Load("image", 0.08, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Shuffled(rand.New(rand.NewSource(seed)))
}

// sameView asserts two consensus views are bit-for-bit identical:
// label sets, candidate lists, float confidences, and stats.
func sameView(t testing.TB, round int, want, got *ConsensusView) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatalf("round %d: stats diverged:\nwant %+v\ngot  %+v", round, want.Stats, got.Stats)
	}
	if len(want.Items) != len(got.Items) {
		t.Fatalf("round %d: %d vs %d items", round, len(want.Items), len(got.Items))
	}
	for i := range want.Items {
		sameItemConsensus(t, round, i, want.Items[i], got.Items[i])
	}
}

func sameItemConsensus(t testing.TB, round, i int, want, got ItemConsensus) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round %d item %d diverged:\nwant %+v\ngot  %+v", round, i, want, got)
	}
}

// TestPublishFullMatchesLegacy pins the full-publication plumbing: at every
// round of a long shuffled stream, the publisher's full mode — a clone
// finalized with panel caches lent across rounds — must be bit-identical to
// a plain Clone()+FinalizeOnline()+ConsensusView(), across Parallelism
// settings.
func TestPublishFullMatchesLegacy(t *testing.T) {
	ds := publishStream(t, 21)
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", par), func(t *testing.T) {
			cfg := Config{Seed: 21, BatchSize: 64, Parallelism: par}
			model, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
			if err != nil {
				t.Fatal(err)
			}
			pub := NewPublisher(model)
			round := 0
			for _, b := range ds.Batches(cfg.BatchSize) {
				if err := model.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				round++
				got, dirty, err := pub.Publish(true)
				if err != nil {
					t.Fatal(err)
				}
				if dirty != nil {
					t.Fatalf("round %d: full publish reported a dirty set", round)
				}
				legacy := model.Clone()
				legacy.FinalizeOnline()
				want, err := legacy.ConsensusView()
				if err != nil {
					t.Fatal(err)
				}
				sameView(t, round, want, got)
			}
			if round < 10 {
				t.Fatalf("stream too short to exercise publication: %d rounds", round)
			}
		})
	}
}

// TestPublishFullFinalizesAtPinnedParallelism pins the publisher's
// Parallelism pin: once the live model is retuned mid-stream, every full
// publication must still equal a clone finalized at the Parallelism the
// publisher was built with. The finalize pass is not Parallelism-invariant,
// so the test also requires that finalizing at the tuned value gives other
// bits at least once; without that it could not tell the two apart.
func TestPublishFullFinalizesAtPinnedParallelism(t *testing.T) {
	ds := publishStream(t, 21)
	for _, tc := range []struct{ pinned, tuned int }{{1, 4}, {4, 1}} {
		t.Run(fmt.Sprintf("P=%d->%d", tc.pinned, tc.tuned), func(t *testing.T) {
			cfg := Config{Seed: 21, BatchSize: 64, Parallelism: tc.pinned}
			model, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
			if err != nil {
				t.Fatal(err)
			}
			pub := NewPublisher(model)
			finalizeAt := func(par int) *ConsensusView {
				c := model.Clone()
				if err := c.Retune(par, 0); err != nil {
					t.Fatal(err)
				}
				c.FinalizeOnline()
				v, err := c.ConsensusView()
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			const retuneRound = 3
			differed := false
			for round, b := range ds.Batches(cfg.BatchSize) {
				if round == retuneRound {
					if err := model.Retune(tc.tuned, 0); err != nil {
						t.Fatal(err)
					}
				}
				if err := model.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				got, _, err := pub.Publish(true)
				if err != nil {
					t.Fatal(err)
				}
				sameView(t, round, finalizeAt(tc.pinned), got)
				if round >= retuneRound && !reflect.DeepEqual(finalizeAt(tc.tuned).Items, got.Items) {
					differed = true
				}
			}
			if got := model.Config().Parallelism; got != tc.tuned {
				t.Fatalf("live model at Parallelism %d, want the tuned %d", got, tc.tuned)
			}
			if !differed {
				t.Fatalf("finalize at P=%d never differed from P=%d: the stream cannot exercise the pin", tc.tuned, tc.pinned)
			}
		})
	}
}

// TestIncrementalPublishMatchesFullRebuild is the equivalence test of the
// incremental engine: at every round of a long shuffled stream, each entry
// the incremental publisher refreshed must be bit-identical to what a full
// rebuild — the same refresh applied to every item — produces that round,
// and every carried-forward entry must be bit-identical to the previous
// view's. Together the two cover the whole view every round.
func TestIncrementalPublishMatchesFullRebuild(t *testing.T) {
	ds := publishStream(t, 33)
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", par), func(t *testing.T) {
			cfg := Config{Seed: 33, BatchSize: 64, Parallelism: par}
			newModel := func() *Model {
				m, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			// Two identical models advanced in lockstep: inc publishes
			// incrementally, all rebuilds every item with the same refresh.
			incModel, allModel := newModel(), newModel()
			incPub, allPub := NewPublisher(incModel), NewPublisher(allModel)
			allItems := make([]int, ds.NumItems)
			for i := range allItems {
				allItems[i] = i
			}

			round, refreshed := 0, 0
			for _, b := range ds.Batches(cfg.BatchSize) {
				if err := incModel.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				if err := allModel.PartialFit(b.Answers); err != nil {
					t.Fatal(err)
				}
				round++
				prev := incPub.View()
				incView, dirty, err := incPub.Publish(false)
				if err != nil {
					t.Fatal(err)
				}
				// Full rebuild reference: every item refreshed, same engine.
				allModel.takeDirtySorted(nil)
				var allView *ConsensusView
				if allPub.View() == nil {
					if allView, _, err = allPub.Publish(true); err != nil {
						t.Fatal(err)
					}
				} else if allView, err = allPub.publishRefresh(allItems); err != nil {
					t.Fatal(err)
				}

				if prev == nil {
					// Cold start publishes the full pipeline on both sides.
					if dirty != nil {
						t.Fatalf("round %d: cold publisher reported a dirty set", round)
					}
					sameView(t, round, allView, incView)
					continue
				}
				if len(dirty) == 0 {
					t.Fatalf("round %d: no dirty items after a PartialFit round", round)
				}
				refreshed += len(dirty)
				isDirty := make(map[int]bool, len(dirty))
				for _, i := range dirty {
					isDirty[i] = true
				}
				for i := range incView.Items {
					if isDirty[i] {
						// Refreshed entries ≡ the full rebuild's, bit-for-bit.
						sameItemConsensus(t, round, i, allView.Items[i], incView.Items[i])
					} else {
						// Clean entries carry forward unchanged.
						sameItemConsensus(t, round, i, prev.Items[i], incView.Items[i])
					}
				}
				if !reflect.DeepEqual(allView.Stats, incView.Stats) {
					t.Fatalf("round %d: stats diverged:\nwant %+v\ngot  %+v", round, allView.Stats, incView.Stats)
				}
			}
			if round < 10 {
				t.Fatalf("stream too short: %d rounds", round)
			}
			if refreshed >= round*ds.NumItems {
				t.Fatalf("incremental publisher refreshed everything (%d entries over %d rounds) — not incremental", refreshed, round)
			}
		})
	}
}

// TestCloneSharedStorageIsolation pins the structural-sharing discipline of
// the chunked answer index: after a clone, both the source and the clone
// keep ingesting and fitting independently, and each must end bit-identical
// to a fresh model fed its own full sequence — no cross-talk through the
// shared chunks.
func TestCloneSharedStorageIsolation(t *testing.T) {
	ds := publishStream(t, 7)
	all := ds.Answers()
	if len(all) < 400 {
		t.Fatalf("stream too short: %d answers", len(all))
	}
	cfg := Config{Seed: 7, BatchSize: 64}
	prefix, tailA, tailB := all[:256], all[256:320], all[320:400]

	run := func(batches ...[]answers.Answer) *Model {
		m, err := NewModel(cfg, ds.NumItems, ds.NumWorkers, ds.NumLabels)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if err := m.PartialFit(b); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}

	src := run(prefix)
	clone := src.Clone()
	if err := src.PartialFit(tailA); err != nil {
		t.Fatal(err)
	}
	if err := clone.PartialFit(tailB); err != nil {
		t.Fatal(err)
	}

	refA, refB := run(prefix, tailA), run(prefix, tailB)
	for _, c := range []struct {
		name      string
		got, want *Model
	}{{"source", src, refA}, {"clone", clone, refB}} {
		c.got.FinalizeOnline()
		c.want.FinalizeOnline()
		gotView, err := c.got.ConsensusView()
		if err != nil {
			t.Fatal(err)
		}
		wantView, err := c.want.ConsensusView()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantView, gotView) {
			t.Fatalf("%s diverged from its uninterrupted reference after shared-storage clone", c.name)
		}
	}
}
