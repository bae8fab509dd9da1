package main

import (
	"fmt"
	"slices"
	"time"

	"cpa/internal/answers"
	"cpa/internal/labelset"
	"cpa/internal/loadgen"
	"cpa/internal/metrics"
	"cpa/internal/serve"
)

// check counts one correctness check; a non-nil err is a miss.
func (o *ops) check(err error, format string, args ...any) {
	o.attempted.Add(1)
	if err != nil {
		o.miss("%s: %v", fmt.Sprintf(format, args...), err)
	}
}

// checkTenant is the per-job correctness gate: the served snapshot covers
// exactly the acked answers and is the bit-for-bit replay of the journal.
func checkTenant(journal string, spec serve.JobSpec, snap *serve.Snapshot, acked int64) error {
	if err := coversAcked(snap, acked); err != nil {
		return err
	}
	return loadgen.CheckReplay(journal, spec, snap)
}

func coversAcked(snap *serve.Snapshot, acked int64) error {
	if int64(snap.Answers) != acked {
		return fmt.Errorf("served snapshot covers %d answers, %d were acked", snap.Answers, acked)
	}
	return nil
}

// sameSnapshot compares two served snapshots (creation time excluded).
func sameSnapshot(want, got *serve.Snapshot) error {
	if got.Round != want.Round || got.Answers != want.Answers || len(got.Consensus) != len(want.Consensus) {
		return fmt.Errorf("snapshot at round %d / %d answers / %d items, want %d / %d / %d",
			got.Round, got.Answers, len(got.Consensus), want.Round, want.Answers, len(want.Consensus))
	}
	for i, w := range want.Consensus {
		g := got.Consensus[i]
		if g.Item != w.Item || !slices.Equal(g.Labels, w.Labels) || !slices.Equal(g.Candidates, w.Candidates) {
			return fmt.Errorf("item %d differs", i)
		}
	}
	return nil
}

// check runs the correctness gate over every tenant of a quiesced round:
// the served snapshot covers exactly the acked answers and, when full is
// set, is the bit-for-bit replay of the journal and (replicated) equals
// the consensus the follower serves. Load rounds before the last one get
// the acked-count check only; the replay dominates a round's check time.
func (r *runner) check(st *stack, ts []*tenant, full bool) {
	for _, t := range ts {
		j, ok := st.reg.Get(t.id)
		if !ok {
			r.o.miss("%s: job missing", t.id)
			continue
		}
		snap, acked := j.Snapshot(), t.acked.Load()
		if !full {
			r.o.check(coversAcked(snap, acked), "%s: served consensus", t.id)
			continue
		}
		r.o.check(checkTenant(serve.JournalPath(st.cfg.Dir, t.id), j.Spec(), snap, acked), "%s: served consensus", t.id)
		if st.follower != nil {
			r.o.check(followerMatches(st, t.id), "%s: follower consensus", t.id)
		}
	}
}

// followerMatches compares the consensus the follower node serves with
// the one the primary node serves, once the follower has caught up.
func followerMatches(st *stack, id string) error {
	var want serve.Snapshot
	if err := nodeGet(st.primary, "/v1/jobs/"+id+"/consensus", &want); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, err := st.followerSnapshot(id)
		if err != nil {
			return err
		}
		if got.Round >= want.Round || time.Now().After(deadline) {
			return sameSnapshot(&want, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// servedF1 is metrics.Evaluate's F1 of the final served consensus against
// the simulator's truth, over the items that received acked answers,
// averaged over tenants.
func (r *runner) servedF1(st *stack, ts []*tenant, recs []postRec) float64 {
	covered := make([][]bool, len(ts))
	for i, t := range ts {
		covered[i] = make([]bool, t.ds.NumItems)
	}
	for _, rec := range recs {
		if !rec.ok {
			continue
		}
		t := ts[rec.tenant]
		lo := rec.seq * r.w.perPost
		for _, a := range t.ds.Answers()[lo : lo+t.counts[rec.seq]] {
			covered[rec.tenant][a.Item] = true
		}
	}
	total := 0.0
	for i, t := range ts {
		j, ok := st.reg.Get(t.id)
		if !ok {
			continue
		}
		f1, err := coveredF1(t.ds, covered[i], j.Snapshot())
		r.o.check(err, "%s: evaluating consensus", t.id)
		total += f1
	}
	return total / float64(len(ts))
}

func coveredF1(ds *answers.Dataset, covered []bool, snap *serve.Snapshot) (float64, error) {
	sub, err := answers.NewDataset(ds.Name, ds.NumItems, ds.NumWorkers, ds.NumLabels)
	if err != nil {
		return 0, err
	}
	pred := make([]labelset.Set, ds.NumItems)
	for i := range pred {
		if i < len(snap.Consensus) {
			pred[i] = labelset.FromSlice(snap.Consensus[i].Labels)
		}
		if truth, ok := ds.Truth(i); ok && covered[i] {
			if err := sub.SetTruth(i, truth); err != nil {
				return 0, err
			}
		}
	}
	pr, err := metrics.Evaluate(sub, pred)
	if err != nil {
		return 0, err
	}
	return pr.F1(), nil
}
