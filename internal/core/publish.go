package core

import (
	"fmt"
	"sort"

	"cpa/internal/labelset"
	"cpa/internal/mat"
)

// Publisher is the snapshot engine behind serve's per-round consensus
// publication (DESIGN.md §8). It supports two publication modes:
//
//   - Full: the complete online-prediction pipeline of §4.1 — FinalizeOnline
//     (global κ/ϕ refresh plus the reliability/imputation fixed point)
//     followed by ConsensusView — on a Clone of the live model, finalized
//     at the Publisher's pinned Parallelism. O(total answers) per round.
//   - Incremental: only items dirtied since the last publication (touched
//     by a PartialFit batch) plus a bounded round-robin sweep are
//     republished, straight from the live model's current state — the ϕ row
//     and calibrated ŷ that PartialFit just refreshed under the current
//     worker model — with only the §3.4 instantiation recomputed
//     (predictItemLocal); every other item carries its previous immutable
//     ItemConsensus entry forward. O(batch + dimensions) per round,
//     independent of stream length — even per refreshed item the cost does
//     not scale with that item's accumulated answer history.
//
// Each incremental refresh is a pure per-item function of the live model
// state: the shared inputs (emission posterior modes, cluster truth sizes)
// are frozen from the live parameters before the per-item loop, so an
// item's refreshed entry does not depend on which other items happen to be
// in the dirty set. That property is what makes the incremental-vs-full-
// rebuild equivalence testable bit-for-bit (publish_test.go) and lets the
// serving journal replay reproduce any published snapshot exactly.
//
// A Publisher must be driven from the goroutine that owns the model (the
// fitter); the views it returns are immutable and safe to share.
type Publisher struct {
	src  *Model
	view *ConsensusView

	// par is the Parallelism every full publication finalizes at: the
	// model's when the Publisher was built. The finalize pass is not
	// Parallelism-invariant, and journal replay ignores tune annotations,
	// so a live job, its recovery and its followers reproduce each other's
	// bits only if all of them finalize at this one value, whatever an
	// auto-tuner later sets on the live model.
	par int

	// panels and prod are the score-panel and product-panel caches lent to
	// each finalize clone, so a full publication refills the panel buffers
	// and slot maps of earlier rounds instead of allocating them afresh.
	// Both are keyed by the set ids of intern, the live interner they were
	// built against. gen is the last expectation generation a clone
	// reached: the next clone starts past it, so a panel built for an
	// earlier clone is never served.
	panels panelCache
	prod   prodCache
	intern *labelset.Interner
	gen    uint64

	// cursor is the round-robin sweep position: each incremental round also
	// refreshes up to |dirty| untouched items so consensus staleness from
	// drifting global parameters and worker statistics is bounded by
	// I/|batch| rounds under sustained load. Full publications reset it.
	cursor int

	dirtyBuf []int
	phiMAP   []float64
	nbar     []float64
	preds    []labelset.Set
}

// NewPublisher returns a snapshot engine for the given live model, pinned
// to the model's current Parallelism for full publications.
func NewPublisher(m *Model) *Publisher {
	return &Publisher{src: m, par: m.cfg.Parallelism}
}

// View returns the most recently published view (nil before the first
// Publish).
func (p *Publisher) View() *ConsensusView { return p.view }

// Publish builds the next consensus view. With full=true (or on a cold
// publisher) it runs the complete finalize pipeline; otherwise it refreshes
// only the dirty items and returns their sorted ids (nil for a full
// rebuild). The returned dirty slice is valid until the next Publish call.
func (p *Publisher) Publish(full bool) (*ConsensusView, []int, error) {
	if !p.src.fitted {
		return nil, nil, fmt.Errorf("%w: Publish before Fit/FitStream", ErrState)
	}
	dirty := p.src.takeDirtySorted(p.dirtyBuf)
	p.dirtyBuf = dirty
	if full || p.view == nil || len(p.view.Items) != p.src.numItems {
		view, err := p.publishFull()
		return view, nil, err
	}
	dirty = p.addSweep(dirty)
	p.dirtyBuf = dirty
	view, err := p.publishRefresh(dirty)
	return view, dirty, err
}

// takeDirtySorted drains the model's publish-dirty item set (accumulated by
// PartialFit) into dst, sorted ascending.
func (m *Model) takeDirtySorted(dst []int) []int {
	dst = append(dst[:0], m.dirtyItems...)
	for _, i := range m.dirtyItems {
		m.dirtyFlags[i] = false
	}
	m.dirtyItems = m.dirtyItems[:0]
	sort.Ints(dst)
	return dst
}

// addSweep widens a sorted dirty set with up to |dirty| round-robin swept
// items (deduplicated against the batch-dirty prefix), keeping the result
// sorted. The sweep is what refreshes items whose own evidence never
// changes but whose consensus inputs — worker statistics, global
// parameters — drift with every round.
func (p *Publisher) addSweep(dirty []int) []int {
	I := p.src.numItems
	n0 := len(dirty)
	budget := n0
	if budget > I-n0 {
		budget = I - n0
	}
	for scanned := 0; scanned < I && len(dirty)-n0 < budget; scanned++ {
		i := p.cursor
		p.cursor++
		if p.cursor == I {
			p.cursor = 0
		}
		if k := sort.SearchInts(dirty[:n0], i); k < n0 && dirty[k] == i {
			continue
		}
		dirty = append(dirty, i)
	}
	sort.Ints(dirty)
	return dirty
}

// publishFull finalizes a clone of the live model at the pinned
// Parallelism and publishes its consensus view.
func (p *Publisher) publishFull() (*ConsensusView, error) {
	c := p.src.Clone()
	if err := c.Retune(p.par, 0); err != nil {
		return nil, err
	}
	// A window compaction (maybeCompactWindow) replaces the live interner
	// wholesale, renumbering every set: panels keyed by the old ids must go.
	if p.intern != p.src.intern {
		p.panels = panelCache{}
		p.prod = prodCache{buf: p.prod.buf}
		p.intern = p.src.intern
	}
	p.panels.disabled = p.src.panels.disabled
	p.gen++
	c.panels, c.ws.prod, c.expGen = p.panels, p.prod, p.gen
	c.FinalizeOnline()
	view, err := c.ConsensusView()
	p.panels, p.prod, p.gen = c.panels, c.ws.prod, c.expGen
	p.cursor = 0
	if err != nil {
		return nil, err
	}
	p.view = view
	return view, nil
}

// publishRefresh re-publishes exactly the given sorted dirty items from the
// live model's current state and carries every other item's previous entry
// forward unchanged. The live model already holds each dirty item's ϕ row
// and calibrated ŷ — PartialFit refreshed them this round under the current
// worker model — so the refresh is the §3.4 instantiation alone, with
// cluster weights read from ϕ (predictItemLocal): O(1) per item regardless
// of how many answers the item has accumulated, and a pure per-item
// function of the live state (the shared inputs below are frozen before the
// per-item loop), independent of the dirty-set choice.
func (p *Publisher) publishRefresh(dirty []int) (*ConsensusView, error) {
	src := p.src
	p.phiMAP = src.dirichletModesInto(src.zeta, p.phiMAP)
	if cap(p.nbar) < src.T {
		p.nbar = make([]float64, src.T)
	}
	nbar := p.nbar[:src.T]
	src.clusterTruthSizesInto(nbar)

	if cap(p.preds) < len(dirty) {
		p.preds = make([]labelset.Set, len(dirty))
	}
	preds := p.preds[:len(dirty)]
	phiMAP := p.phiMAP
	mat.ParallelFor(len(dirty), src.shardCount(len(dirty)), func(_, lo, hi int) {
		sc := newPredictScratch(src)
		for k := lo; k < hi; k++ {
			preds[k] = src.predictItemLocal(dirty[k], phiMAP, nbar, sc)
		}
	})

	// Assemble the view: fresh entries for dirty items, the previous view's
	// immutable entries (shared, never copied) for everything else.
	items := make([]ItemConsensus, len(p.view.Items))
	copy(items, p.view.Items)
	for k, i := range dirty {
		items[i] = ItemConsensus{
			Labels:     preds[k].Slice(),
			Candidates: append([]int(nil), src.votedList[i]...),
			Confidence: append([]float64(nil), src.yhatVals[i]...),
		}
	}
	view := &ConsensusView{Items: items, Stats: src.Stats()}
	p.view = view
	return view, nil
}
