package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/labelset"
)

// WriteResidueJob lays out a crashed persistent job under dataDir whose
// truncated journal keeps covered residue behind its base header. The base
// checkpoint (model.gob, copied to base.gob) covers three fit rounds, but a
// fourth batch's answers were journaled before the second round's marker,
// so the truncation stopped at them: the header covers one round, and two
// covered fit markers stay in the file. Under concurrent ingest a live
// fitter lands in this interleaving only by timing; here the package's own
// journal writer and truncation lay it down in a fixed order. Returns the
// job spec and a checkpoint of the first round alone — a seed behind the
// header.
func WriteResidueJob(t testing.TB, dataDir, id string) (JobSpec, []byte) {
	t.Helper()
	const items, workers, labels, bs = 60, 12, 6, 32
	model, err := core.NewModel(core.Config{Seed: 3, BatchSize: bs}, items, workers, labels)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{ID: id, Items: items, Workers: workers, Labels: labels, Model: model.Config()}
	rng := rand.New(rand.NewSource(5))
	batches := make([][]answers.Answer, 5)
	for b := range batches {
		for k := 0; k < bs; k++ {
			batches[b] = append(batches[b], answers.Answer{
				Item: rng.Intn(items), Worker: rng.Intn(workers), Labels: labelset.Of(rng.Intn(labels)),
			})
		}
	}

	dir := filepath.Join(dataDir, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, specFile), bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalFile)
	jr, err := openJournal(path, false, 0, JournalBase{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	write := func(line journalLine) {
		req, err := jr.reserveLine(line)
		if err == nil {
			err = jr.await(req)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ans := func(b int) {
		for _, a := range batches[b] {
			ja := answers.ToJSON(a)
			write(journalLine{Op: opAnswer, Ans: &ja})
		}
	}
	fit := func(b int, full bool) {
		if err := model.PartialFit(batches[b]); err != nil {
			t.Fatal(err)
		}
		write(fitLine(bs, full))
	}

	ans(0)
	fit(0, true)
	var behind bytes.Buffer
	if err := model.Save(&behind); err != nil {
		t.Fatal(err)
	}
	ans(1)
	ans(2)
	ans(3)
	fit(1, false)
	fit(2, true) // a truncating save round publishes full
	var ckpt bytes.Buffer
	if err := model.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, modelFile), ckpt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := copyFileAtomic(filepath.Join(dir, modelFile), filepath.Join(dir, baseFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := jr.truncate(path, 3*bs, 3, 0); err != nil {
		t.Fatal(err)
	}
	if b := jr.base; b.Ans != 3*bs || b.Fits != 1 || b.Covered != bs {
		t.Fatalf("truncation header %+v, want 96 answers / 1 fit / 32 covered", b)
	}
	ans(4)
	fit(3, false)
	fit(4, true)
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	return spec, behind.Bytes()
}

// TestTruncationResidueAccountingIsExact pins the strict half of the
// truncation contract on the replay engine: skipping covered residue is
// allowed only while every covered record is accounted for exactly. A
// header whose consumed-answer count disagrees with the seed, and a journal
// that ends inside the seed's coverage, are both rejected.
func TestTruncationResidueAccountingIsExact(t *testing.T) {
	dir := t.TempDir()
	spec, _ := WriteResidueJob(t, dir, "exact")
	var entries []JournalEntry
	if err := ReadJournal(JournalPath(dir, "exact"), func(e JournalEntry) error {
		entries = append(entries, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, "jobs", "exact", baseFile))
	if err != nil {
		t.Fatal(err)
	}
	replay := func(entries []JournalEntry) error {
		_, err := ReplayEntries(spec, bytes.NewReader(seed), entries)
		return err
	}
	if err := replay(entries); err != nil {
		t.Fatalf("honest residue journal rejected: %v", err)
	}

	miscounted := append([]JournalEntry(nil), entries...)
	hdr := *entries[0].Base
	hdr.Covered++
	miscounted[0].Base = &hdr
	if err := replay(miscounted); !errors.Is(err, ErrInvalid) {
		t.Fatalf("header miscounting the covered answers: %v, want ErrInvalid", err)
	}

	// The retained suffix opens with the fourth batch's answers, then the
	// two covered fit markers; stop before the second.
	cut := 1 + 32 + 1
	if entries[cut-1].FitN == 0 || entries[cut].FitN == 0 {
		t.Fatalf("unexpected residue layout at %d: %+v, %+v", cut, entries[cut-1], entries[cut])
	}
	if err := replay(entries[:cut]); !errors.Is(err, ErrInvalid) {
		t.Fatalf("journal ending inside the seed's coverage: %v, want ErrInvalid", err)
	}
}

// TestRecoverySeedsAtSpecParallelism pins seeding at the spec's
// Parallelism: a checkpoint saved after an auto-tuner moved Parallelism
// must still recover the pre-crash snapshot bit for bit, because the
// finalize pass of a full publication is not Parallelism-invariant and the
// job published at the spec's.
func TestRecoverySeedsAtSpecParallelism(t *testing.T) {
	dir := t.TempDir()
	ds := shuffledStream(t, 0.04, 9)
	spec := JobSpec{
		ID: "par", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 9, BatchSize: 64, Parallelism: 1},
	}
	cfg := Config{Dir: dir, BatchWait: time.Millisecond, SaveEvery: 1}
	reg := mustOpen(t, cfg)
	job, err := reg.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	all := ds.Answers()
	ingestAll(t, job, all, 64)
	before := waitSnapshot(t, job, len(all))
	reg.CrashAll()

	// Leave the final checkpoint where a tuner would: at Parallelism 4.
	ckpt := filepath.Join(dir, "jobs", "par", modelFile)
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Retune(4, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := mustOpen(t, cfg)
	defer reg2.Close()
	job2, ok := reg2.Get("par")
	if !ok {
		t.Fatal("job not recovered")
	}
	sameConsensus(t, before, job2.Snapshot())
}
