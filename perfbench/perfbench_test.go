package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cpa/internal/core"
	"cpa/internal/datasets"
	"cpa/internal/serve"
)

// toy shrinks a workload so a run takes a few seconds.
func toy(w workload) workload {
	w.scale = 0.05
	w.minRounds = 1
	w.postReads = min(w.postReads, 20)
	w.recoveries = 1
	w.setups = 1
	return w
}

type benchSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchSpec {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryMetricEmitted runs every workload at toy size, untraced and
// traced, and checks each result carries exactly the metrics BENCHMARK.json
// names, finite and with their units, with the correctness gate passed.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			o := options{workload: wl.Name, seed: 3, seconds: 1.5, trace: trace, workdir: t.TempDir()}
			_, out, err := execute(toy(w), o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", wl.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", wl.Name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: metric %s in %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%d: metric %s = %v", wl.Name, trace, m.Name, got.Value)
				}
			}
		}
	}
}

// TestGateRejectsTamperedSnapshot serves a small job, then checks the gate
// accepts its snapshot and rejects altered copies of it.
func TestGateRejectsTamperedSnapshot(t *testing.T) {
	dir := t.TempDir()
	reg, err := serve.Open(serve.Config{Dir: dir, BatchWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ds, _, err := datasets.Load("image", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	job, err := reg.Create(serve.JobSpec{ID: "gate", Items: ds.NumItems, Workers: ds.NumWorkers, Labels: ds.NumLabels,
		Model: core.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	stream := ds.Answers()
	if err := job.Ingest(stream); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); job.Snapshot().Answers < len(stream); {
		if time.Now().After(deadline) {
			t.Fatal("answers never became visible")
		}
		time.Sleep(time.Millisecond)
	}
	snap := job.Snapshot()
	path := serve.JournalPath(dir, "gate")
	if err := checkTenant(path, job.Spec(), snap, int64(len(stream))); err != nil {
		t.Fatalf("gate rejects the served snapshot: %v", err)
	}
	if err := checkTenant(path, job.Spec(), snap, int64(len(stream))-1); err == nil {
		t.Error("gate accepts a snapshot covering more answers than were acked")
	}

	tampered := func(edit func(*serve.ItemSnapshot)) *serve.Snapshot {
		c := *snap
		c.Consensus = slices.Clone(snap.Consensus)
		for i := range c.Consensus {
			if len(c.Consensus[i].Candidates) > 0 {
				it := c.Consensus[i]
				it.Labels = slices.Clone(it.Labels)
				it.Candidates = slices.Clone(it.Candidates)
				edit(&it)
				c.Consensus[i] = it
				return &c
			}
		}
		t.Fatal("no item with candidates")
		return nil
	}
	for name, s := range map[string]*serve.Snapshot{
		"confidence": tampered(func(it *serve.ItemSnapshot) { it.Candidates[0].Confidence += 1e-12 }),
		"labels":     tampered(func(it *serve.ItemSnapshot) { it.Labels = append(it.Labels, 10_000) }),
	} {
		if err := checkTenant(path, job.Spec(), s, int64(len(stream))); err == nil {
			t.Errorf("gate accepts a snapshot with tampered %s", name)
		}
		if err := sameSnapshot(snap, s); err == nil {
			t.Errorf("recovery comparison accepts a snapshot with tampered %s", name)
		}
	}
}

// TestStallRaisesOpenLoopLatency stalls a server for 300ms mid-schedule and
// checks the open loop still sends every scheduled request, and that the
// requests due during the stall carry it in their latency.
func TestStallRaisesOpenLoopLatency(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 10 {
			time.Sleep(300 * time.Millisecond)
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()

	ten := &tenant{id: "stall"}
	for range 60 {
		ten.bodies = append(ten.bodies, []byte("{}\n"))
		ten.counts = append(ten.counts, 1)
	}
	var o ops
	p := &poster{o: &o, base: srv.URL, ts: []*tenant{ten}}
	c := newClient()
	defer c.CloseIdleConnections()
	sched := schedule(p.ts, 100, 1, time.Hour) // one request every 10ms
	start := time.Now()
	recs := openLoop(start, sched, func(it item, due time.Time) postRec { return p.post(c, it.tenant, it.seq, due) })
	elapsed := time.Since(start)

	if len(recs) != len(sched) || o.attempted.Load() != int64(len(sched)) || o.failed.Load() != 0 {
		t.Fatalf("sent %d of %d scheduled requests (attempted %d, failed %d)", len(recs), len(sched), o.attempted.Load(), o.failed.Load())
	}
	// The schedule spans 590ms; the stall may delay its end by at most its
	// own length.
	if elapsed > 590*time.Millisecond+300*time.Millisecond+200*time.Millisecond {
		t.Errorf("open loop took %v: the stall slowed the offered rate", elapsed)
	}
	// The request due right after the stalled one waited for it.
	if lat := recs[10].latency(); lat < 250*time.Millisecond {
		t.Errorf("request due during the stall has latency %v, want ≥250ms from its due time", lat)
	}
	var lats []float64
	for _, r := range recs {
		lats = append(lats, ms(r.latency()))
		if !r.ok {
			t.Fatalf("request %d failed", r.seq)
		}
	}
	if p90 := quantile(lats, 0.9); p90 < 50 {
		t.Errorf("p90 latency %vms: the stall does not show in open-loop latency", p90)
	}
	if p10 := quantile(lats, 0.1); p10 > 50 {
		t.Errorf("p10 latency %vms: requests outside the stall are slow", p10)
	}
}
