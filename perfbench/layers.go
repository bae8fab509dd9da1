package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cpa/internal/answers"
	"cpa/internal/core"
	"cpa/internal/labelset"
	"cpa/internal/serve"
)

// layerData gathers the per-layer measurements of a traced run. Live
// counters come from Job.Stats() and the follower's /statsz during the
// load; the rest from re-executing the last load round's inputs through
// each layer's public functions: the posted bodies through
// serve.DecodeNDJSON, the journal through serve.ReadJournal feeding each
// fit marker's batch to core.Model.PartialFit and core.Publisher.Publish,
// and the final models through Model.Save and core.Load.
type layerData struct {
	depths         []float64
	lagMax         int64
	replayedRounds float64

	decodeNs, decodeAnswers, bodyBytes float64

	appendHist, publishHist        []int64
	cohorts, cohortRecs            int64
	journalBytes, journalAnswers   int64
	fitMs, fullMs, incrMs, roundMs []float64
	markers, fullMarkers, fitted   int
	saveMs, loadMs, ckptBytes      []float64
	readBytes, encodeMs            []float64
}

// publishBase is the first bucket bound of serve's log₂ latency histograms.
const publishBase = 50 * time.Microsecond

func (l *layerData) collect(r *runner, st *stack, ts []*tenant, recs []postRec) error {
	for _, rec := range recs {
		if !rec.ok {
			continue
		}
		t := ts[rec.tenant]
		body := t.bodies[rec.seq]
		var arena labelset.Arena
		n := 0
		t0 := time.Now()
		err := serve.DecodeNDJSON(body, &arena, func(answers.Answer) error { n++; return nil })
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("decoding a posted body: %w", err)
		}
		r.tr.add("serve.http", "decode", fmt.Sprintf("%s#%d", t.id, rec.seq), 0, t0, t1)
		l.decodeNs += float64(t1.Sub(t0).Nanoseconds())
		l.decodeAnswers += float64(n)
		l.bodyBytes += float64(len(body))
	}
	for _, t := range ts {
		j, ok := st.reg.Get(t.id)
		if !ok {
			return fmt.Errorf("job %s missing", t.id)
		}
		s := j.Stats()
		l.appendHist = addCounts(l.appendHist, s.Ingest.Appends.Log2Buckets)
		l.publishHist = addCounts(l.publishHist, s.Publish.Log2Buckets)
		l.cohorts += s.Ingest.Cohorts
		l.cohortRecs += s.Ingest.CohortRecords
		l.journalBytes += s.JournalBytes
		l.journalAnswers += s.IngestedAnswers

		snap := j.Snapshot()
		var enc []float64
		for range 5 {
			t0 := time.Now()
			raw, err := json.Marshal(snap)
			if err != nil {
				return err
			}
			enc = append(enc, ms(time.Since(t0)))
			l.readBytes = append(l.readBytes, float64(len(raw)))
		}
		l.encodeMs = append(l.encodeMs, median(enc))

		if err := l.replay(r.tr, serve.JournalPath(st.cfg.Dir, t.id), j.Spec()); err != nil {
			return fmt.Errorf("replaying %s: %w", t.id, err)
		}
	}
	return nil
}

// replay walks one job's journal, re-running every fit round through the
// core layer with its recorded batch and publish mode, then checkpoints
// and reloads the resulting model.
func (l *layerData) replay(tr *tracer, path string, spec serve.JobSpec) error {
	model, err := core.NewModel(spec.Model, spec.Items, spec.Workers, spec.Labels)
	if err != nil {
		return err
	}
	pub := core.NewPublisher(model)
	root := tr.open("serve.journal", "replay", spec.ID, 0)
	var pending []answers.Answer
	err = serve.ReadJournal(path, func(e serve.JournalEntry) error {
		switch {
		case e.Answer != nil:
			pending = append(pending, *e.Answer)
		case e.FitN > 0:
			if e.FitN > len(pending) {
				return fmt.Errorf("fit marker n=%d with %d pending answers", e.FitN, len(pending))
			}
			req := fmt.Sprintf("%s#f%d", spec.ID, l.markers)
			t0 := time.Now()
			if err := model.PartialFit(pending[:e.FitN]); err != nil {
				return err
			}
			t1 := time.Now()
			if _, _, err := pub.Publish(e.FitFull); err != nil {
				return err
			}
			t2 := time.Now()
			pending = pending[e.FitN:]
			tr.add("core.fit", "partial_fit", req, root, t0, t1)
			tr.add("core.publish", "publish", req, root, t1, t2)
			l.fitMs = append(l.fitMs, ms(t1.Sub(t0)))
			l.roundMs = append(l.roundMs, ms(t2.Sub(t0)))
			if e.FitFull {
				l.fullMs = append(l.fullMs, ms(t2.Sub(t1)))
				l.fullMarkers++
			} else {
				l.incrMs = append(l.incrMs, ms(t2.Sub(t1)))
			}
			l.markers++
			l.fitted += e.FitN
		}
		return nil
	})
	tr.close(root)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if err := model.Save(&buf); err != nil {
		return err
	}
	t1 := time.Now()
	if _, err := core.Load(bytes.NewReader(buf.Bytes())); err != nil {
		return err
	}
	t2 := time.Now()
	tr.add("core.checkpoint", "save", spec.ID, 0, t0, t1)
	tr.add("core.checkpoint", "load", spec.ID, 0, t1, t2)
	l.saveMs = append(l.saveMs, ms(t1.Sub(t0)))
	l.loadMs = append(l.loadMs, ms(t2.Sub(t1)))
	l.ckptBytes = append(l.ckptBytes, float64(buf.Len()))
	return nil
}

// checkpointRounds is the fit-round count of a job's on-disk checkpoint
// (0 without one): recovery replays the journal's rounds past it.
func checkpointRounds(dataDir, id string) (int, error) {
	f, err := os.Open(filepath.Join(filepath.Dir(serve.JournalPath(dataDir, id)), serve.CheckpointFileName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		return 0, err
	}
	return m.BatchRounds(), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (l *layerData) metrics(r *runner) []metric {
	visP50 := quantile(r.visMs, 0.5)
	out := []metric{
		{"loadgen.lag_p99_ms", "ms", quantile(r.lagMs, 0.99)},
		{"client.ack_p50_ms", "ms", quantile(r.ackMs, 0.5)},
		{"client.ack_p99_ms", "ms", quantile(r.ackMs, 0.99)},
		{"client.read_p99_ms", "ms", quantile(r.readMs, 0.99)},

		{"serve.http.decode_ns_per_answer", "ns", ratio(l.decodeNs, l.decodeAnswers)},
		{"serve.http.request_bytes_per_answer", "B", ratio(l.bodyBytes, l.decodeAnswers)},

		{"serve.journal.append_p50_us", "us", 1000 * histQuantile(l.appendHist, publishBase, 0.5)},
		{"serve.journal.append_p99_us", "us", 1000 * histQuantile(l.appendHist, publishBase, 0.99)},
		{"serve.journal.records_per_cohort", "count", ratio(float64(l.cohortRecs), float64(l.cohorts))},
		{"serve.journal.bytes_per_answer", "B", ratio(float64(l.journalBytes), float64(l.journalAnswers))},

		{"serve.queue.depth_mean", "count", ratio(sum(l.depths), float64(len(l.depths)))},
		{"serve.queue.depth_max", "count", quantile(l.depths, 1)},

		{"serve.fitter.rounds", "count", float64(l.markers)},
		{"serve.fitter.answers_per_round", "count", ratio(float64(l.fitted), float64(l.markers))},
		{"serve.fitter.full_publish_ratio", "ratio", ratio(float64(l.fullMarkers), float64(l.markers))},
		{"serve.fitter.wait_ms_p50", "ms", visP50 - median(l.roundMs)},

		{"core.fit.round_p50_ms", "ms", median(l.fitMs)},
		{"core.fit.ns_per_answer", "ns", ratio(1e6*sum(l.fitMs), float64(l.fitted))},
		{"core.fit.busy_s", "s", sum(l.fitMs) / 1000},

		{"core.publish.full_p50_ms", "ms", median(l.fullMs)},
		{"core.publish.incr_p50_ms", "ms", median(l.incrMs)},
		{"core.publish.busy_s", "s", (sum(l.fullMs) + sum(l.incrMs)) / 1000},
		{"core.publish.inload_p50_ms", "ms", histQuantile(l.publishHist, publishBase, 0.5)},
		{"core.publish.inload_p99_ms", "ms", histQuantile(l.publishHist, publishBase, 0.99)},

		{"core.checkpoint.save_ms", "ms", median(l.saveMs)},
		{"core.checkpoint.load_ms", "ms", median(l.loadMs)},
		{"core.checkpoint.bytes", "B", median(l.ckptBytes)},

		{"serve.read.body_bytes", "B", median(l.readBytes)},
		{"serve.read.encode_ms", "ms", median(l.encodeMs)},

		{"serve.recovery.open_s", "s", median(r.openS)},
		{"serve.recovery.replayed_rounds", "count", l.replayedRounds},

		{"cluster.follower.lag_bytes_max", "B", float64(l.lagMax)},
		{"cluster.follower.visible_p50_ms", "ms", quantile(r.folVisMs, 0.5)},
		{"cluster.follower.visible_p99_ms", "ms", quantile(r.folVisMs, 0.99)},

		{"runtime.alloc_bytes_per_answer", "B", ratio(float64(r.mem.TotalAlloc), float64(r.visAnswers))},
		{"runtime.gc_cycles", "count", float64(r.mem.NumGC)},
		{"runtime.gc_pause_ms", "ms", float64(r.mem.PauseTotalNs) / 1e6},
	}
	self := r.tr.selfSeconds()
	for _, layer := range traceLayers {
		out = append(out, metric{layer + ".self_s", "s", self[layer]})
	}
	return out
}

// traceLayers are the layers spans are recorded for; each reports its
// summed self time.
var traceLayers = []string{
	"serve.http", "serve.read", "serve.fitter", "serve.journal",
	"core.fit", "core.publish", "core.checkpoint", "serve.recovery", "cluster",
}
