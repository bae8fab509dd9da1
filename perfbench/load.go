package main

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cpa/internal/answers"
	"cpa/internal/serve"
)

// tenant is one job's generated input: its dataset, in arrival order, cut
// into the NDJSON bodies the clients post.
type tenant struct {
	id     string
	seed   int64
	ds     *answers.Dataset
	bodies [][]byte
	counts []int // answers per body
	// acked counts answers acked so far in the current load round.
	acked atomic.Int64
}

func newTenant(id string, seed int64, ds *answers.Dataset, perPost int) (*tenant, error) {
	t := &tenant{id: id, seed: seed, ds: ds}
	stream := ds.Answers()
	for lo := 0; lo < len(stream); lo += perPost {
		hi := min(lo+perPost, len(stream))
		var body []byte
		for _, a := range stream[lo:hi] {
			line, err := answers.MarshalAnswerJSON(a)
			if err != nil {
				return nil, err
			}
			body = append(append(body, line...), '\n')
		}
		t.bodies = append(t.bodies, body)
		t.counts = append(t.counts, hi-lo)
	}
	return t, nil
}

// postRec is one POST as the client saw it. due is when an open loop
// scheduled it (zero in a closed loop, which times from sent); lag is how
// late the generator sent it: after its due time in an open loop, after the
// poster's previous ack in a closed loop. cum is the tenant's acked answer
// count once this POST was acked.
type postRec struct {
	tenant, seq int
	due         time.Time
	sent, ack   time.Time
	lag         time.Duration
	ok          bool
	cum         int64
	span        int
}

func (p postRec) latency() time.Duration {
	if p.due.IsZero() {
		return p.ack.Sub(p.sent)
	}
	return p.ack.Sub(p.due)
}

// getRec is one consensus GET.
type getRec struct {
	due, sent, done time.Time
	ok              bool
}

// item is one scheduled open-loop request.
type item struct {
	tenant, seq int
	due         time.Duration // offset from the loop's start
}

// schedule lays out an open loop: each tenant posts its bodies in order,
// one every perPost/rate seconds, tenants evenly phase-shifted, until the
// window or the tenant's corpus ends. Requests are merged by due time.
func schedule(ts []*tenant, rate float64, perPost int, window time.Duration) []item {
	gap := time.Duration(float64(perPost) / rate * float64(time.Second))
	var out []item
	for ti, t := range ts {
		off := gap * time.Duration(ti) / time.Duration(len(ts))
		for k := range t.bodies {
			due := off + gap*time.Duration(k)
			if due >= window {
				break
			}
			out = append(out, item{tenant: ti, seq: k, due: due})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// openLoop sends the scheduled items from one goroutine over one
// connection. A request waits for its due time but never for a slot: when
// the server stalls, later requests go out late — back to back — and their
// latency, timed from the due time, carries the stall. The offered load is
// therefore the schedule, whatever the server does.
func openLoop(start time.Time, sched []item, send func(it item, due time.Time) postRec) []postRec {
	out := make([]postRec, 0, len(sched))
	for _, it := range sched {
		due := start.Add(it.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		rec := send(it, due)
		rec.lag = rec.sent.Sub(due)
		out = append(out, rec)
	}
	return out
}

// poster posts tenant bodies and records the outcomes.
type poster struct {
	o     *ops
	base  string
	ts    []*tenant
	tr    *tracer
	retry bool // closed loop: retry a refused body until it is acked
}

func (p *poster) post(c *http.Client, ti, seq int, due time.Time) postRec {
	t := p.ts[ti]
	url := p.base + "/v1/jobs/" + t.id + "/answers"
	rec := postRec{tenant: ti, seq: seq, due: due, sent: time.Now()}
	for {
		err := p.o.do(c, http.MethodPost, url, "application/x-ndjson", t.bodies[seq])
		if err == nil {
			rec.ok = true
			break
		}
		if !p.retry {
			break
		}
		time.Sleep(time.Millisecond)
	}
	rec.ack = time.Now()
	if rec.ok {
		rec.cum = t.acked.Add(int64(t.counts[seq]))
	}
	rec.span = p.tr.add("serve.http", "post", fmt.Sprintf("%s#%d", t.id, seq), 0, rec.sent, rec.ack)
	return rec
}

// reader GETs each tenant's consensus round robin on an open-loop
// schedule until stop closes, timing each read from its due time over the
// full body.
func reader(o *ops, c *http.Client, base string, ts []*tenant, rate float64, tr *tracer, stop <-chan struct{}) []getRec {
	var out []getRec
	start := time.Now()
	gap := time.Duration(float64(time.Second) / rate)
	for k := 0; ; k++ {
		due := start.Add(gap * time.Duration(k))
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return out
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		t := ts[k%len(ts)]
		rec := getRec{due: due, sent: time.Now()}
		err := o.do(c, http.MethodGet, base+"/v1/jobs/"+t.id+"/consensus", "", nil)
		rec.done, rec.ok = time.Now(), err == nil
		tr.add("serve.read", "get", fmt.Sprintf("%s#r%d", t.id, k), 0, rec.sent, rec.done)
		out = append(out, rec)
	}
}

// pubObs is one publication the watcher saw: when, and what it covered.
type pubObs struct {
	at      time.Time
	answers int
	round   int
}

// watcher polls every job's published snapshot (and, replicated, the
// follower's applied round) at sub-millisecond intervals so no
// publication goes unseen, logging each new one with its time.
type watcher struct {
	jobs   []*serve.Job
	follow func(i int) (int, error) // follower round probe, nil if none
	obs    [][]pubObs
	fobs   [][]pubObs
	stop   chan struct{}
	done   chan struct{}
}

func startWatcher(jobs []*serve.Job, follow func(int) (int, error)) *watcher {
	w := &watcher{
		jobs: jobs, follow: follow,
		obs: make([][]pubObs, len(jobs)), fobs: make([][]pubObs, len(jobs)),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go w.run()
	return w
}

func (w *watcher) run() {
	defer close(w.done)
	last := make([]*serve.Snapshot, len(w.jobs))
	lastF := make([]int, len(w.jobs))
	for {
		// Check for stop before the pass, so the pass after halt covers
		// every publication made before it.
		stopping := false
		select {
		case <-w.stop:
			stopping = true
		default:
		}
		for i, j := range w.jobs {
			if s := j.Snapshot(); s != last[i] {
				last[i] = s
				w.obs[i] = append(w.obs[i], pubObs{at: time.Now(), answers: s.Answers, round: s.Round})
			}
			if w.follow != nil {
				if r, err := w.follow(i); err == nil && r != lastF[i] {
					lastF[i] = r
					w.fobs[i] = append(w.fobs[i], pubObs{at: time.Now(), round: r})
				}
			}
		}
		if stopping {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// halt stops the watcher and waits for it; its logs are then safe to read.
func (w *watcher) halt() {
	close(w.stop)
	<-w.done
}

// visibleAt returns the first logged publication of job i covering at
// least n answers (ok=false if none was seen).
func (w *watcher) visibleAt(i int, n int64) (pubObs, bool) {
	log := w.obs[i]
	k := sort.Search(len(log), func(k int) bool { return int64(log[k].answers) >= n })
	if k == len(log) {
		return pubObs{}, false
	}
	return log[k], true
}

// followerAt returns when the follower of job i first applied round r.
func (w *watcher) followerAt(i, r int) (time.Time, bool) {
	log := w.fobs[i]
	k := sort.Search(len(log), func(k int) bool { return log[k].round >= r })
	if k == len(log) {
		return time.Time{}, false
	}
	return log[k].at, true
}

// sampler polls Job.Stats() queue depths (and the follower's replication
// lag) every 10ms during a traced load.
type sampler struct {
	depths []float64
	lagMax int64
	stop   chan struct{}
	done   chan struct{}
}

func startSampler(jobs []*serve.Job, lag func() (int64, error)) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			depth := 0
			for _, j := range jobs {
				depth += j.Stats().QueueDepth
			}
			s.depths = append(s.depths, float64(depth))
			if lag != nil {
				if l, err := lag(); err == nil {
					s.lagMax = max(s.lagMax, l)
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) halt() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}

// closedLoop pushes every tenant's corpus, one tenant at a time, with one
// goroutine per client sharing that tenant's bodies; the next tenant starts
// once the current one is fully acked.
func closedLoop(p *poster, clients []*http.Client) []postRec {
	var mu sync.Mutex
	var out []postRec
	for ti, t := range p.ts {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				prev := time.Now()
				for {
					seq := int(next.Add(1)) - 1
					if seq >= len(t.bodies) {
						return
					}
					rec := p.post(c, ti, seq, time.Time{})
					rec.lag = rec.sent.Sub(prev)
					prev = rec.ack
					mu.Lock()
					out = append(out, rec)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	return out
}
