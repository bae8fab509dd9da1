package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"cpa/internal/core"
	"cpa/internal/datasets"
	"cpa/internal/serve"
)

// workload is one traffic mix. An open loop (rate > 0) streams each
// tenant's corpus in arrival order at rate answers/s for the run's seconds,
// in one load round. A closed loop (posters > 0) pushes whole corpora in
// load rounds on fresh data directories until the run's seconds have
// passed and at least minRounds rounds ran. Every round ends with reads of
// the quiesced consensus (postReads) and crash/reopen cycles of its data
// directory (recoveries), so a closed loop spreads those measurements over
// the whole run instead of one block at its end.
type workload struct {
	name       string
	profile    string
	scale      float64
	tenants    int
	perPost    int     // answers per POST
	rate       float64 // open loop: answers/s per tenant
	readRate   float64 // open loop: consensus GETs/s during the load
	posters    int     // closed loop: concurrent posters
	minRounds  int     // closed loop: load rounds at least
	postReads  int     // consensus GETs after each round's load
	replicated bool    // cluster router + primary + follower, SyncJournal
	recoveries int     // crash/reopen cycles after each round
	setups     int     // set-ups per run; setup_s is their median
}

var workloads = map[string]workload{
	"trickle": {
		name: "trickle", profile: "image", scale: 1, tenants: 2,
		perPost: 16, rate: 500, readRate: 60, recoveries: 19, setups: 9,
	},
	"backfill": {
		name: "backfill", profile: "entity", scale: 1, tenants: 6,
		perPost: 256, posters: 2, minRounds: 4, postReads: 256, recoveries: 1, setups: 9,
	},
	"replicated": {
		name: "replicated", profile: "image", scale: 0.3, tenants: 1,
		perPost: 4, rate: 250, readRate: 60, replicated: true, recoveries: 41, setups: 9,
	},
}

// metric is one named measurement of a result line.
type metric struct {
	name, unit string
	value      float64
}

// runner executes one workload once, traced or not.
type runner struct {
	w    workload
	seed int64
	secs float64
	dir  string
	tr   *tracer
	o    ops

	setupS               []float64
	ackMs, visMs, readMs []float64
	folVisMs, lagMs      []float64
	visRate, ingRate     []float64
	recoveryS, openS     []float64
	cpuS                 float64
	visAnswers           int64
	f1                   float64
	heapMB               float64
	mem                  runtime.MemStats // accumulated over load windows

	layers *layerData // traced runs only
	phases map[string]float64
}

// phase adds the time since t0 to a named phase of the run.
func (r *runner) phase(name string, t0 time.Time) {
	r.phases[name] += time.Since(t0).Seconds()
}

// result is what one run reports.
type result struct {
	e2e       []metric
	layers    []metric
	attempted int64
	failed    int64
	misses    []string
	samples   map[string]int
	phases    map[string]float64 // wall seconds per phase of the run
	lagP99Ms  float64            // generator lateness (postRec.lag), p99
	recoveryS []float64          // every crash/reopen cycle, in order
}

func runOnce(w workload, seed int64, secs float64, workdir string, tr *tracer) (*result, error) {
	// Start from a quiet disk: writeback left by the build or an earlier
	// run would otherwise land inside this run's measurements.
	syscall.Sync()
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{w: w, seed: seed, secs: secs, dir: dir, tr: tr, phases: map[string]float64{}}
	if tr != nil {
		r.layers = &layerData{}
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	return r.result(), nil
}

// inputs generates every tenant's dataset and request bodies from the seed.
func (r *runner) inputs() ([]*tenant, error) {
	var ts []*tenant
	for i := range r.w.tenants {
		tseed := r.seed*1009 + int64(i) + 1
		ds, _, err := datasets.Load(r.w.profile, r.w.scale, tseed)
		if err != nil {
			return nil, err
		}
		t, err := newTenant(fmt.Sprintf("%s-%d", r.w.name, i), tseed, ds, r.w.perPost)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// openJobs opens the stack in a fresh directory and creates the jobs over
// HTTP. It is the set-up setup_s times.
func (r *runner) openJobs(dir string, ts []*tenant) (*stack, error) {
	st, err := openStack(r.w, dir)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for _, t := range ts {
		body, err := json.Marshal(serve.CreateJobRequest{
			ID: t.id, Items: t.ds.NumItems, Workers: t.ds.NumWorkers, Labels: t.ds.NumLabels,
			Model: core.Config{Seed: t.seed},
		})
		if err == nil {
			err = r.o.do(c, http.MethodPost, st.base+"/v1/jobs", "application/json", body)
		}
		if err != nil {
			st.crash()
			return nil, fmt.Errorf("creating job %s: %w", t.id, err)
		}
	}
	return st, nil
}

func (r *runner) run() error {
	t0 := time.Now()
	ts, err := r.inputs()
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	r.phase("inputs", t0)
	var st *stack
	for k := range r.w.setups {
		dir := filepath.Join(r.dir, fmt.Sprintf("setup-%d", k))
		t0 := time.Now()
		s, err := r.openJobs(dir, ts)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.phase("setup", t0)
		if k < r.w.setups-1 {
			s.crash()
			os.RemoveAll(dir)
			continue
		}
		st = s
	}

	start := time.Now()
	for round := 0; ; round++ {
		if round > 0 {
			dir := filepath.Join(r.dir, fmt.Sprintf("round-%d", round))
			if st, err = r.openJobs(dir, ts); err != nil {
				return err
			}
		}
		t0 := time.Now()
		recs, err := r.load(st, ts)
		if err != nil {
			st.crash()
			return err
		}
		r.phase("load", t0)
		last := r.w.rate > 0 || (time.Since(start).Seconds() >= r.secs && round+1 >= r.w.minRounds)
		if err := r.finishRound(st, ts, recs, last); err != nil {
			return err
		}
		os.RemoveAll(st.dir)
		if last {
			return nil
		}
		syscall.Sync() // the next round starts from a quiet disk too
	}
}

// finishRound runs the checks, reads and recovery cycles that follow a
// round's load. The last round also measures the live heap, evaluates F1,
// runs the full correctness gate and, traced, the per-layer replay; earlier
// rounds check only the acked counts (the replay dominates a check).
func (r *runner) finishRound(st *stack, ts []*tenant, recs []postRec, last bool) error {
	if last {
		// Two collections: the first leaves sync.Pool contents in the
		// victim cache, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.heapMB = float64(ms.HeapAlloc) / 1e6
	}
	t0 := time.Now()
	r.check(st, ts, last)
	if last {
		r.f1 = r.servedF1(st, ts, recs)
	}
	r.phase("check", t0)
	if r.w.postReads > 0 {
		t0 = time.Now()
		r.postLoadReads(st, ts)
		r.phase("reads", t0)
	}
	if last && r.layers != nil {
		t0 = time.Now()
		if err := r.layers.collect(r, st, ts, recs); err != nil {
			st.crash()
			return err
		}
		r.phase("replay", t0)
	}
	t0 = time.Now()
	err := r.recoverCycles(st, ts)
	r.phase("recovery", t0)
	return err
}

// load runs one load round on a freshly created set of jobs and waits
// until every acked answer is visible in served consensus.
func (r *runner) load(st *stack, ts []*tenant) ([]postRec, error) {
	jobs := make([]*serve.Job, len(ts))
	for i, t := range ts {
		j, ok := st.reg.Get(t.id)
		if !ok {
			return nil, fmt.Errorf("job %s missing from the registry", t.id)
		}
		jobs[i] = j
		t.acked.Store(0)
	}
	var follow func(int) (int, error)
	var lag func() (int64, error)
	if st.follower != nil {
		follow = func(i int) (int, error) { return st.followerRound(ts[i].id) }
		lag = func() (int64, error) { return st.replicationLag(ts) }
	}
	w := startWatcher(jobs, follow)
	var smp *sampler
	if r.tr != nil {
		smp = startSampler(jobs, lag)
	}
	cpu0 := cpuSeconds()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	p := &poster{o: &r.o, base: st.base, ts: ts, tr: r.tr, retry: r.w.rate == 0}
	start := time.Now()
	var recs []postRec
	var gets []getRec
	if r.w.rate > 0 {
		window := time.Duration(r.secs * float64(time.Second))
		sched := schedule(ts, r.w.rate, r.w.perPost, window)
		stop, done := make(chan struct{}), make(chan struct{})
		if r.w.readRate > 0 {
			go func() {
				defer close(done)
				c := newClient()
				defer c.CloseIdleConnections()
				gets = reader(&r.o, c, st.base, ts, r.w.readRate, r.tr, stop)
			}()
		} else {
			close(done)
		}
		c := newClient()
		recs = openLoop(start, sched, func(it item, due time.Time) postRec { return p.post(c, it.tenant, it.seq, due) })
		c.CloseIdleConnections()
		close(stop)
		<-done
	} else {
		clients := make([]*http.Client, r.w.posters)
		for i := range clients {
			clients[i] = newClient()
		}
		recs = closedLoop(p, clients)
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}
	var lastAck time.Time
	for _, rec := range recs {
		if rec.ack.After(lastAck) {
			lastAck = rec.ack
		}
	}

	err := r.awaitVisible(st, ts, jobs)
	w.halt()
	smp.halt()
	if err != nil {
		return nil, err
	}
	r.cpuS += cpuSeconds() - cpu0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.mem.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
	r.mem.NumGC += m1.NumGC - m0.NumGC
	r.mem.PauseTotalNs += m1.PauseTotalNs - m0.PauseTotalNs
	if smp != nil {
		r.layers.depths = append(r.layers.depths, smp.depths...)
		r.layers.lagMax = max(r.layers.lagMax, smp.lagMax)
	}

	var total int64
	var visibleAll time.Time
	for i, t := range ts {
		n := t.acked.Load()
		total += n
		if obs, ok := w.visibleAt(i, n); ok && obs.at.After(visibleAll) {
			visibleAll = obs.at
		}
	}
	r.visAnswers += total
	if total > 0 {
		r.visRate = append(r.visRate, float64(total)/visibleAll.Sub(start).Seconds())
		r.ingRate = append(r.ingRate, float64(total)/lastAck.Sub(start).Seconds())
	}

	for _, rec := range recs {
		r.lagMs = append(r.lagMs, ms(rec.lag))
		if !rec.ok {
			continue
		}
		r.ackMs = append(r.ackMs, ms(rec.latency()))
		obs, ok := w.visibleAt(rec.tenant, rec.cum)
		if !ok {
			r.o.miss("%s: %d acked answers never became visible", ts[rec.tenant].id, rec.cum)
			continue
		}
		seen := obs.at
		if seen.Before(rec.ack) {
			seen = rec.ack // published before the ack reached the client
		}
		r.visMs = append(r.visMs, ms(seen.Sub(rec.ack)))
		req := fmt.Sprintf("%s#%d", ts[rec.tenant].id, rec.seq)
		r.tr.add("serve.fitter", "visible_wait", req, rec.span, rec.ack, seen)
		if follow != nil {
			at, ok := w.followerAt(rec.tenant, obs.round)
			if !ok {
				r.o.miss("%s: follower never applied round %d", ts[rec.tenant].id, obs.round)
				continue
			}
			if at.Before(rec.ack) {
				at = rec.ack
			}
			r.folVisMs = append(r.folVisMs, ms(at.Sub(rec.ack)))
			r.tr.add("cluster", "follower_visible_wait", req, rec.span, rec.ack, at)
		}
	}
	for _, g := range gets {
		r.lagMs = append(r.lagMs, ms(g.sent.Sub(g.due)))
		if g.ok {
			r.readMs = append(r.readMs, ms(g.done.Sub(g.due)))
		}
	}
	return recs, nil
}

// awaitVisible waits until every tenant's served snapshot covers all its
// acked answers and (replicated) the follower has applied the primary's
// last round.
func (r *runner) awaitVisible(st *stack, ts []*tenant, jobs []*serve.Job) error {
	deadline := time.Now().Add(90 * time.Second)
	for i, t := range ts {
		want := t.acked.Load()
		for {
			snap := jobs[i].Snapshot()
			done := int64(snap.Answers) >= want
			if done && st.follower != nil {
				fr, err := st.followerRound(t.id)
				done = err == nil && fr >= snap.Round
			}
			if done {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: %d acked answers not visible after 90s (snapshot covers %d)", t.id, want, snap.Answers)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// postLoadReads GETs every tenant's consensus round robin from one closed
// loop client, timing each read over the full body.
func (r *runner) postLoadReads(st *stack, ts []*tenant) {
	c := newClient()
	defer c.CloseIdleConnections()
	for k := range r.w.postReads {
		t := ts[k%len(ts)]
		t0 := time.Now()
		err := r.o.do(c, http.MethodGet, st.base+"/v1/jobs/"+t.id+"/consensus", "", nil)
		t1 := time.Now()
		r.tr.add("serve.read", "get", fmt.Sprintf("%s#r%d", t.id, k), 0, t0, t1)
		if err == nil {
			r.readMs = append(r.readMs, ms(t1.Sub(t0)))
		}
	}
}

// recoverCycles hard-kills the stack and reopens its primary data directory
// r.w.recoveries times, timing each Open until every tenant serves its
// pre-crash snapshot again.
func (r *runner) recoverCycles(st *stack, ts []*tenant) error {
	pre := make([]*serve.Snapshot, len(ts))
	for i, t := range ts {
		j, _ := st.reg.Get(t.id)
		pre[i] = j.Snapshot()
	}
	st.crash()
	// Rounds the first reopen replays past the checkpoints (traced runs;
	// the last round's count is the one reported).
	replayed := 0
	if r.layers != nil {
		for _, t := range ts {
			n, err := checkpointRounds(st.cfg.Dir, t.id)
			if err != nil {
				return err
			}
			replayed -= n
		}
	}
	for k := range r.w.recoveries {
		runtime.GC() // each cycle starts from the same heap
		t0 := time.Now()
		reg, err := serve.Open(st.cfg)
		if err != nil {
			return fmt.Errorf("recovery %d: %w", k, err)
		}
		opened := time.Now()
		jobs := make([]*serve.Job, len(ts))
		for i, t := range ts {
			j, ok := reg.Get(t.id)
			if !ok {
				reg.CrashAll()
				return fmt.Errorf("recovery %d: job %s not recovered", k, t.id)
			}
			jobs[i] = j
			for deadline := time.Now().Add(60 * time.Second); ; {
				s := j.Snapshot()
				if s.Round == pre[i].Round && s.Answers == pre[i].Answers {
					break
				}
				if time.Now().After(deadline) {
					break // sameSnapshot below reports the miss
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
		served := time.Now()
		r.tr.add("serve.recovery", "open", "", 0, t0, opened)
		r.recoveryS = append(r.recoveryS, served.Sub(t0).Seconds())
		r.openS = append(r.openS, opened.Sub(t0).Seconds())
		for i, j := range jobs {
			r.o.check(sameSnapshot(pre[i], j.Snapshot()), "%s: recovered snapshot (cycle %d)", ts[i].id, k)
			if k == 0 {
				replayed += int(j.Stats().FitRounds)
			}
		}
		reg.CrashAll()
	}
	if r.layers != nil {
		r.layers.replayedRounds = float64(replayed)
	}
	return nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func (r *runner) result() *result {
	res := &result{
		attempted: r.o.attempted.Load(),
		failed:    r.o.failed.Load(),
		misses:    r.o.misses,
		samples: map[string]int{
			"ack": len(r.ackMs), "visible": len(r.visMs), "read": len(r.readMs),
			"follower_visible": len(r.folVisMs), "load_rounds": len(r.visRate),
			"recoveries": len(r.recoveryS), "setups": len(r.setupS),
		},
		phases:    r.phases,
		lagP99Ms:  quantile(r.lagMs, 0.99),
		recoveryS: r.recoveryS,
	}
	cpuPerK := 0.0
	if r.visAnswers > 0 {
		cpuPerK = r.cpuS / (float64(r.visAnswers) / 1000)
	}
	res.e2e = []metric{
		{"visible_p50_ms", "ms", quantile(r.visMs, 0.5)},
		{"visible_p99_ms", "ms", quantile(r.visMs, 0.99)},
		{"read_p50_ms", "ms", quantile(r.readMs, 0.5)},
		{"visible_answers_per_s", "answers/s", median(r.visRate)},
		{"ingest_answers_per_s", "answers/s", median(r.ingRate)},
		{"recovery_s", "s", median(r.recoveryS)},
		{"f1", "ratio", r.f1},
		{"cpu_s_per_kanswer", "s/kanswer", cpuPerK},
		{"live_heap_mb", "MB", r.heapMB},
		{"setup_s", "s", median(r.setupS)},
	}
	if r.layers != nil {
		res.layers = r.layers.metrics(r)
	}
	return res
}
