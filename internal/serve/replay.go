package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
)

// Replay is the journal replay engine: the one implementation of "rebuild a
// job from its journal" that crash recovery, cluster followers and the
// loadgen invariant checker all run (DESIGN.md §12). Answers buffer as
// pending, fit markers advance the model with PartialFit over the recorded
// mini-batch boundary, and — once the replay is live — every fit marker
// publishes with its recorded mode and every restart re-anchor republishes
// full. That is exactly the computation the job's fitter performed, so a
// replay that has applied a journal prefix holds the bit-identical model
// and snapshot chain (modulo CreatedAt) the job held at that point. Tune
// annotations and unknown ops are no-ops.
//
// Truncation contract. A replay starts from a seed: a fresh model, or a
// checkpoint covering the first TotalIngested() answer lines and
// BatchRounds() fit markers of the job's global (never-truncated) journal.
// A truncated journal opens with a base header giving the coverage of the
// prefix it dropped. The seed must cover at least that prefix, and the
// covered residue — records still in the file but already inside the seed —
// is skipped. Accounting is exact: once the last covered fit marker has been
// skipped, every covered answer line must have been seen, and the covered
// fit markers (the header's included) must have consumed exactly the seed's
// answers.
//
// Apply runs on one goroutine; Snapshot is safe for concurrent readers.
type Replay struct {
	spec    JobSpec
	model   *core.Model
	pending []answers.Answer
	// pub is nil while the replay is quiet: recovery never publishes per
	// round, and a whole-journal replay stays quiet up to its last anchor.
	pub  *core.Publisher
	snap atomic.Pointer[Snapshot]

	seedAns           int64 // answers the seed covers
	skipAns, skipFits int64 // covered records still to skip
	covered           int64 // answers consumed by covered fit markers
	started           bool  // a record was applied: no base header may follow
}

// seedModel builds a replay seed for spec: a fresh model when checkpoint is
// nil, else the decoded checkpoint, whose dimensions must match the spec.
func seedModel(spec JobSpec, checkpoint io.Reader) (*core.Model, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if checkpoint == nil {
		m, err := core.NewModel(spec.Model, spec.Items, spec.Workers, spec.Labels)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		return m, nil
	}
	m, err := core.Load(checkpoint)
	if err != nil {
		return nil, fmt.Errorf("%w: loading seed checkpoint: %v", ErrInvalid, err)
	}
	if st := m.Stats(); st.Items != spec.Items || st.Workers != spec.Workers || st.Labels != spec.Labels {
		return nil, fmt.Errorf("%w: seed checkpoint dimensions (%d items, %d workers, %d labels) do not match spec (%d, %d, %d)",
			ErrInvalid, st.Items, st.Workers, st.Labels, spec.Items, spec.Workers, spec.Labels)
	}
	// A checkpoint records the Parallelism an auto-tuner left the job at.
	// Fitting is bit-identical across Parallelism, but a full publication's
	// finalize pass is not. core.NewPublisher pins the Parallelism the
	// model has when the publisher is built, and the live job builds its
	// publisher at the spec's: seed at it too, so every replay and every
	// recovered job pins the same value and publishes the same bits.
	if err := m.Retune(spec.Model.Parallelism, 0); err != nil {
		return nil, fmt.Errorf("%w: seed checkpoint: %v", ErrInvalid, err)
	}
	return m, nil
}

// newReplay starts a quiet replay of spec's journal from seed.
func newReplay(spec JobSpec, seed *core.Model) *Replay {
	r := &Replay{spec: spec, model: seed, seedAns: int64(seed.TotalIngested())}
	r.skipAns, r.skipFits = r.seedAns, int64(seed.BatchRounds())
	r.snap.Store(emptySnapshot(spec, time.Now()))
	return r
}

// NewReplay starts a live replay — one that publishes every round — from a
// checkpoint, or from a fresh model when checkpoint is nil. A seeded replay
// publishes the checkpoint's state in full at once: checkpoints that seed
// replays are taken at full publications, so the chain re-anchors exactly
// where the job's did. Cluster followers apply shipped journals through it.
func NewReplay(spec JobSpec, checkpoint io.Reader) (*Replay, error) {
	seed, err := seedModel(spec, checkpoint)
	if err != nil {
		return nil, err
	}
	r := newReplay(spec, seed)
	return r, r.goLive()
}

// ReplayEntries replays a whole decoded journal from a checkpoint (or from
// a fresh model when checkpoint is nil) and returns the replay at its end,
// with the exact accounting of covered records checked. A full publication
// supersedes the whole snapshot chain before it, so publishing starts at
// the last anchor — a full fit marker or a restart re-anchor, else the
// seed — and earlier rounds advance the model alone.
func ReplayEntries(spec JobSpec, checkpoint io.Reader, entries []JournalEntry) (*Replay, error) {
	seed, err := seedModel(spec, checkpoint)
	if err != nil {
		return nil, err
	}
	r := newReplay(spec, seed)
	anchor := -1
	for k, e := range entries {
		if e.FitFull || e.Restart {
			anchor = k
		}
	}
	if anchor < 0 {
		if err := r.goLive(); err != nil {
			return nil, err
		}
	}
	for k, e := range entries {
		if err := r.Apply(e); err != nil {
			return nil, err
		}
		if k == anchor {
			if err := r.goLive(); err != nil {
				return nil, err
			}
		}
	}
	return r, r.finish()
}

// goLive starts publishing every round. A fitted model publishes in full at
// once, which is what the anchor the replay goes live at published.
func (r *Replay) goLive() error {
	r.pub = core.NewPublisher(r.model)
	if r.model.Fitted() {
		return r.publish(true)
	}
	return nil
}

// Apply consumes one decoded journal record in order.
func (r *Replay) Apply(e JournalEntry) error {
	first := !r.started
	r.started = true
	switch {
	case e.Base != nil:
		if !first {
			return fmt.Errorf("%w: base record past the journal header", ErrInvalid)
		}
		if r.skipAns < e.Base.Ans || r.skipFits < e.Base.Fits {
			return fmt.Errorf("%w: seed (%d answers, %d markers) behind journal base (%d, %d): truncated prefix is unreplayable",
				ErrInvalid, r.skipAns, r.skipFits, e.Base.Ans, e.Base.Fits)
		}
		r.skipAns -= e.Base.Ans
		r.skipFits -= e.Base.Fits
		r.covered += e.Base.Covered
		if r.skipFits == 0 {
			return r.checkCovered()
		}
	case e.Answer != nil:
		if r.skipAns > 0 {
			r.skipAns--
			return nil
		}
		if err := r.spec.validateAnswer(*e.Answer); err != nil {
			return err
		}
		r.pending = append(r.pending, *e.Answer)
	case e.FitN > 0:
		if r.skipFits > 0 {
			r.skipFits--
			r.covered += int64(e.FitN)
			if r.skipFits == 0 {
				return r.checkCovered()
			}
			return nil
		}
		if e.FitN > len(r.pending) {
			return fmt.Errorf("%w: fit marker n=%d with %d pending answers", ErrInvalid, e.FitN, len(r.pending))
		}
		if err := r.model.PartialFit(r.pending[:e.FitN]); err != nil {
			return err
		}
		r.pending = r.pending[e.FitN:]
		if r.pub != nil {
			return r.publish(e.FitFull)
		}
	case e.Restart:
		// The job recovered and re-anchored its cold publisher with a full
		// publication. Inside the covered residue the seed's own full
		// publication already stands for it.
		if r.pub != nil && r.skipFits == 0 && r.model.Fitted() {
			return r.publish(true)
		}
	}
	return nil
}

// checkCovered runs when the last covered fit marker has been accounted
// for: the covered answer lines must all have been skipped, and the covered
// markers must have consumed exactly the seed's answers.
func (r *Replay) checkCovered() error {
	if r.skipAns != 0 || r.covered != r.seedAns {
		return fmt.Errorf("%w: covered fit markers consumed %d of the seed's %d answers (%d covered answer lines unseen)",
			ErrInvalid, r.covered, r.seedAns, r.skipAns)
	}
	return nil
}

// finish checks, at the end of a whole journal, that it reached past
// everything the seed covers.
func (r *Replay) finish() error {
	if r.skipFits > 0 {
		return fmt.Errorf("%w: journal shorter than seed (%d covered fit markers missing)", ErrInvalid, r.skipFits)
	}
	return r.checkCovered()
}

func (r *Replay) publish(full bool) error {
	view, dirty, err := r.pub.Publish(full)
	if err != nil {
		return fmt.Errorf("serve: replay publishing snapshot: %w", err)
	}
	r.snap.Store(nextSnapshot(r.spec.ID, r.snap.Load(), view, dirty, time.Now()))
	return nil
}

// Snapshot returns the replay's latest published consensus snapshot.
func (r *Replay) Snapshot() *Snapshot { return r.snap.Load() }

// View returns the latest published consensus view (nil before the first
// publication).
func (r *Replay) View() *core.ConsensusView {
	if r.pub == nil {
		return nil
	}
	return r.pub.View()
}

// Counters reports the replay's progress in global coordinates: answers
// journaled, answers fitted, and fit rounds. Applying goroutine only.
func (r *Replay) Counters() (ingested, fitted, rounds int64) {
	fitted = int64(r.model.TotalIngested())
	return fitted + int64(len(r.pending)), fitted, int64(r.model.BatchRounds())
}
