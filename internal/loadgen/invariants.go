package loadgen

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/serve"
)

// replayView rebuilds the consensus a job's journal encodes through serve's
// journal replay engine: the recorded arrival order, mini-batch boundaries
// and publish modes, so the result is the computation the daemon performed.
// An untruncated journal replays from a fresh model; a truncated one (it
// opens with a base header) from the base checkpoint next to it. Returns
// nil when no fit round ran.
func replayView(path string, spec serve.JobSpec) (*core.ConsensusView, error) {
	var entries []serve.JournalEntry
	if err := serve.ReadJournal(path, func(e serve.JournalEntry) error {
		entries = append(entries, e)
		return nil
	}); err != nil {
		return nil, err
	}
	var seed io.Reader
	if len(entries) > 0 && entries[0].Base != nil {
		f, err := os.Open(filepath.Join(filepath.Dir(path), serve.BaseCheckpointFileName))
		if err != nil {
			return nil, fmt.Errorf("journal has a base header but its checkpoint is unreadable: %w", err)
		}
		defer f.Close()
		seed = f
	}
	rp, err := serve.ReplayEntries(spec, seed, entries)
	if err != nil {
		return nil, err
	}
	return rp.View(), nil
}

// journalAnswers returns a journal's answer records in order and its
// truncation base (zero for an untruncated journal).
func journalAnswers(path string) ([]answers.Answer, serve.JournalBase, error) {
	var journaled []answers.Answer
	var base serve.JournalBase
	err := serve.ReadJournal(path, func(e serve.JournalEntry) error {
		if e.Answer != nil {
			journaled = append(journaled, *e.Answer)
		}
		if e.Base != nil {
			base = *e.Base
		}
		return nil
	})
	return journaled, base, err
}

// CheckReplay verifies the served-equals-replay invariant: the snapshot a
// server published for a job must be bit-for-bit reproducible by an offline
// replay of that job's journal (same arrival order, same recorded
// mini-batch boundaries, same model config). A nil error means the served
// consensus is exactly the deterministic function of the durable state —
// the property that makes crash recovery exact and that the PR 2 class of
// arrival-order persistence bugs violates.
func CheckReplay(journalPath string, spec serve.JobSpec, snap *serve.Snapshot) error {
	_, err := checkReplay(journalPath, spec, snap)
	return err
}

// checkReplay is CheckReplay that also returns the replayed view, for the
// invariants that inspect it (nil when no fit round ran or the replay
// failed).
func checkReplay(journalPath string, spec serve.JobSpec, snap *serve.Snapshot) (*core.ConsensusView, error) {
	if snap == nil {
		return nil, fmt.Errorf("no served snapshot to check against")
	}
	view, err := replayView(journalPath, spec)
	if err != nil {
		return nil, fmt.Errorf("replaying journal: %w", err)
	}
	if view == nil {
		if snap.Round != 0 {
			return nil, fmt.Errorf("served round %d but journal has no fit markers", snap.Round)
		}
		return nil, nil
	}
	return view, diffSnapshot(snap, view)
}

// diffSnapshot compares a served snapshot with a replayed consensus view,
// element by element and bit for bit (float confidences included — Go's
// JSON encoding round-trips float64 exactly, and the replay is the same
// deterministic computation the server ran).
func diffSnapshot(snap *serve.Snapshot, view *core.ConsensusView) error {
	if snap.Round != view.Stats.BatchRounds {
		return fmt.Errorf("served round %d, replay %d", snap.Round, view.Stats.BatchRounds)
	}
	if snap.Answers != view.Stats.Answers {
		return fmt.Errorf("served snapshot covers %d answers, replay %d", snap.Answers, view.Stats.Answers)
	}
	if len(snap.Consensus) != len(view.Items) {
		return fmt.Errorf("served %d items, replay %d", len(snap.Consensus), len(view.Items))
	}
	for i, item := range view.Items {
		got := snap.Consensus[i]
		if got.Item != i {
			return fmt.Errorf("item %d: served snapshot indexes it as %d", i, got.Item)
		}
		if !slices.Equal(got.Labels, item.Labels) {
			return fmt.Errorf("item %d: served labels %v, replay %v", i, got.Labels, item.Labels)
		}
		if len(got.Candidates) != len(item.Candidates) {
			return fmt.Errorf("item %d: served %d candidates, replay %d", i, len(got.Candidates), len(item.Candidates))
		}
		for k, c := range item.Candidates {
			if got.Candidates[k].Label != c {
				return fmt.Errorf("item %d candidate %d: served label %d, replay %d", i, k, got.Candidates[k].Label, c)
			}
			if got.Candidates[k].Confidence != item.Confidence[k] {
				return fmt.Errorf("item %d candidate %d (label %d): served confidence %v, replay %v",
					i, k, c, got.Candidates[k].Confidence, item.Confidence[k])
			}
		}
	}
	return nil
}

// checkAckedDurable verifies the backpressure invariant: the journal's
// answer sequence equals the client-side acked sequence exactly — same
// answers, same order, nothing lost to a 429/retry cycle, nothing
// duplicated by one. skipped is the acked prefix a journal truncation
// compacted behind the base checkpoint (0 for an untruncated journal): the
// journal then holds exactly the acked suffix past it.
func checkAckedDurable(journaled, acked []answers.Answer, skipped int64) error {
	if skipped < 0 || skipped > int64(len(acked)) {
		return fmt.Errorf("journal base covers %d answers but the client acked only %d", skipped, len(acked))
	}
	acked = acked[skipped:]
	if len(journaled) != len(acked) {
		return fmt.Errorf("journal holds %d answers, client acked %d past the base", len(journaled), len(acked))
	}
	for i := range acked {
		j, a := journaled[i], acked[i]
		if j.Item != a.Item || j.Worker != a.Worker || !j.Labels.Equal(a.Labels) {
			return fmt.Errorf("position %d: journal has (item %d, worker %d, %v), client acked (item %d, worker %d, %v)",
				i, j.Item, j.Worker, j.Labels, a.Item, a.Worker, a.Labels)
		}
	}
	return nil
}

// sameSnapshot compares two served snapshots bit for bit: round, answer
// count and consensus. CreatedAt is stamped per process and not compared.
func sameSnapshot(want, got *serve.Snapshot) error {
	if want == nil || got == nil {
		return fmt.Errorf("missing snapshot (want=%v got=%v)", want != nil, got != nil)
	}
	if got.Round != want.Round || got.Answers != want.Answers {
		return fmt.Errorf("snapshot at round %d / %d answers, want round %d / %d answers",
			got.Round, got.Answers, want.Round, want.Answers)
	}
	if !reflect.DeepEqual(want.Consensus, got.Consensus) {
		return fmt.Errorf("consensus differs from the reference snapshot")
	}
	return nil
}
