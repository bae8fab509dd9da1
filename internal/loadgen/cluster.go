package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"cpa/internal/answers"
	"cpa/internal/cluster"
	"cpa/internal/serve"
)

// Cluster scenarios drive a sharded cpaserve deployment (internal/cluster:
// one router, one shard with a primary and two journal-shipping followers)
// through an ownership change mid-stream and verify the cluster-level
// invariants:
//
//   - acked-answers-durable: every answer the router acked survives the
//     ownership change, in ack order, on the final owner's journal — the
//     replication ack barrier plus most-caught-up promotion must make the
//     change lossless;
//   - served-equals-replay: the consensus served through the router after
//     the change is bit-for-bit the offline replay of the owner's journal
//     (restart re-anchors included);
//   - follower-bit-identical: at quiesce every live follower serves, through
//     the router's verified ?replica= path, exactly the owner's snapshot;
//   - deposed-primary-fenced (handoff): the ex-primary 409s direct
//     ingestion after the transfer.
//
// cluster-failover hard-kills the primary between two ingestion requests;
// the router promotes the most-caught-up follower and the driver retries
// the failed request against the new owner (the router deliberately never
// retries ingestion itself — see DESIGN.md §11). cluster-handoff runs a
// planned, zero-downtime transfer concurrently with live ingestion: every
// request is parked by the routing gate and acked, none are lost or retried.
const (
	ClusterFailoverScenario = "cluster-failover"
	ClusterHandoffScenario  = "cluster-handoff"
)

// ClusterScenarioNames lists the cluster scenario library.
func ClusterScenarioNames() []string {
	return []string{ClusterFailoverScenario, ClusterHandoffScenario}
}

// ClusterConfig parameterises one cluster scenario run.
type ClusterConfig struct {
	// Scenario is ClusterFailoverScenario or ClusterHandoffScenario.
	Scenario string
	// Scale shrinks the dataset profile as in datasets.Load. Default 0.04.
	Scale float64
	// Seed drives workload construction and the ownership-change point.
	// Default 1.
	Seed int64
	// Clock paces arrivals; nil uses a VirtualClock.
	Clock Clock
	// Logf receives progress lines (t.Logf-compatible). Nil is silent.
	Logf func(format string, args ...any)
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Scale == 0 {
		c.Scale = 0.04
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = NewVirtualClock()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ClusterEvent records the ownership change a cluster scenario injected.
type ClusterEvent struct {
	Kind       string `json:"kind"` // "failover" or "handoff"
	AtAnswers  int    `json:"at_answers"`
	OldPrimary string `json:"old_primary"`
	NewPrimary string `json:"new_primary"`
	Epoch      int64  `json:"epoch"`
}

// ClusterReport is the machine-readable outcome of one cluster scenario.
type ClusterReport struct {
	Scenario     string            `json:"scenario"`
	Scale        float64           `json:"scale"`
	Seed         int64             `json:"seed"`
	TotalAnswers int               `json:"total_answers"`
	Requests     int64             `json:"requests"`
	Retried      int64             `json:"retried_requests"`
	Event        ClusterEvent      `json:"event"`
	Invariants   []InvariantResult `json:"invariants"`
	DurationSec  float64           `json:"duration_seconds"`
}

// Failed returns the invariants that did not hold.
func (r *ClusterReport) Failed() []InvariantResult {
	var out []InvariantResult
	for _, iv := range r.Invariants {
		if iv.Status == StatusFail {
			out = append(out, iv)
		}
	}
	return out
}

// Summary renders a one-paragraph human summary.
func (r *ClusterReport) Summary() string {
	verdict := "all invariants held"
	if n := len(r.Failed()); n > 0 {
		verdict = fmt.Sprintf("%d INVARIANT FAILURES", n)
	}
	return fmt.Sprintf("%s: %d answers, %s %s→%s at %d acked (epoch %d), %d requests (%d retried), %.2fs — %s",
		r.Scenario, r.TotalAnswers, r.Event.Kind, r.Event.OldPrimary, r.Event.NewPrimary,
		r.Event.AtAnswers, r.Event.Epoch, r.Requests, r.Retried, r.DurationSec, verdict)
}

// clusterRunner is the transient state of one RunCluster execution.
type clusterRunner struct {
	cfg    ClusterConfig
	report *ClusterReport
	client *http.Client

	nodes   map[string]*clusterNode
	router  *cluster.Router
	routerS *httptest.Server

	jobID string
	spec  serve.JobSpec
	acked []answers.Answer
}

type clusterNode struct {
	node *cluster.Node
	ts   *httptest.Server
	dir  string
}

// RunCluster executes one cluster scenario and returns its report. Invariant
// failures are data (Report.Failed()); an error means the harness itself
// could not complete.
func RunCluster(cfg ClusterConfig) (*ClusterReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Scenario != ClusterFailoverScenario && cfg.Scenario != ClusterHandoffScenario {
		return nil, fmt.Errorf("loadgen: unknown cluster scenario %q (have %v)", cfg.Scenario, ClusterScenarioNames())
	}

	// Reuse the single-node workload machinery for the crowd and stream.
	sc := Scenario{
		Name: cfg.Scenario, Profile: "topic", shape: shapeShuffle,
		Arrival: ArrivalSteady, Phases: []string{"pre", "post"},
	}
	tp, err := buildTenant(sc, cfg.Scale, cfg.Seed, 0, 1)
	if err != nil {
		return nil, fmt.Errorf("loadgen: building cluster tenant: %w", err)
	}

	r := &clusterRunner{
		cfg:    cfg,
		client: &http.Client{Timeout: 60 * time.Second},
		nodes:  map[string]*clusterNode{},
		jobID:  tp.id,
		spec:   tp.spec,
		report: &ClusterReport{
			Scenario: cfg.Scenario, Scale: cfg.Scale, Seed: cfg.Seed,
			TotalAnswers: len(tp.stream),
		},
	}
	defer r.closeCluster()
	if err := r.openCluster(); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := r.run(tp, sc); err != nil {
		return nil, err
	}
	r.finalInvariants()
	r.report.DurationSec = time.Since(start).Seconds()
	return r.report, nil
}

// openCluster builds one shard — primary "a", followers "b" and "c" — and a
// router in front, all in-process.
func (r *clusterRunner) openCluster() error {
	spec := cluster.MapSpec{
		Nodes:  map[string]string{},
		Shards: []cluster.ShardSpec{{Primary: "a", Followers: []string{"b", "c"}}},
	}
	for _, name := range []string{"a", "b", "c"} {
		dir, err := os.MkdirTemp("", "cpaload-cluster-*")
		if err != nil {
			return err
		}
		n, err := cluster.NewNode(name, dir, serve.Config{BatchWait: time.Millisecond, SaveEvery: 4})
		if err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("loadgen: node %s: %w", name, err)
		}
		ts := httptest.NewServer(n)
		r.nodes[name] = &clusterNode{node: n, ts: ts, dir: dir}
		spec.Nodes[name] = ts.URL
	}
	rt, err := cluster.NewRouter(spec)
	if err != nil {
		return err
	}
	r.router = rt
	r.routerS = httptest.NewServer(rt)
	return nil
}

func (r *clusterRunner) closeCluster() {
	if r.routerS != nil {
		r.routerS.Close()
	}
	for _, cn := range r.nodes {
		cn.ts.Close()
		cn.node.Close()
		os.RemoveAll(cn.dir)
	}
}

// run streams the tenant through the router, injecting the scenario's
// ownership change at a seed-determined point mid-stream.
func (r *clusterRunner) run(tp *tenantPlan, sc Scenario) error {
	body, err := json.Marshal(serve.CreateJobRequest{
		ID: tp.id, Items: tp.spec.Items, Workers: tp.spec.Workers, Labels: tp.spec.Labels,
		Model: tp.spec.Model,
	})
	if err != nil {
		return err
	}
	resp, err := r.client.Post(r.routerS.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("loadgen: creating cluster job: status %d", resp.StatusCode)
	}
	r.cfg.Logf("cluster job %s created (%d answers planned)", tp.id, len(tp.stream))

	rng := rand.New(rand.NewSource(r.cfg.Seed + 104729))
	eventAt := int(float64(len(tp.stream)) * (0.35 + 0.30*rng.Float64()))
	traffic := newTrafficModel(sc, r.cfg.Seed+7919)
	handoffDone := make(chan error, 1)
	fired := false

	for len(r.acked) < len(tp.stream) {
		if !fired && len(r.acked) >= eventAt {
			fired = true
			switch r.cfg.Scenario {
			case ClusterFailoverScenario:
				r.cfg.Logf("chaos: kill -9 primary a at %d acked answers", len(r.acked))
				cn := r.nodes["a"]
				cn.node.Crash()
				cn.ts.CloseClientConnections()
				cn.ts.Close()
				r.report.Event = ClusterEvent{Kind: "failover", AtAnswers: len(r.acked), OldPrimary: "a"}
			case ClusterHandoffScenario:
				r.cfg.Logf("handoff: transferring %s a→b at %d acked answers (live traffic)", tp.id, len(r.acked))
				r.report.Event = ClusterEvent{Kind: "handoff", AtAnswers: len(r.acked), OldPrimary: "a"}
				go func() { handoffDone <- r.router.Handoff(tp.id, "b") }()
			}
		}
		n := min(sc.chunk(), len(tp.stream)-len(r.acked))
		chunk := tp.stream[len(r.acked) : len(r.acked)+n]
		if err := r.sendChunk(chunk); err != nil {
			return err
		}
		r.acked = append(r.acked, chunk...)
		r.cfg.Clock.Sleep(traffic.gap())
	}
	if r.cfg.Scenario == ClusterHandoffScenario {
		if err := <-handoffDone; err != nil {
			return fmt.Errorf("loadgen: handoff: %w", err)
		}
	}
	info := r.router.Info()
	job := info.Jobs[r.jobID]
	r.report.Event.NewPrimary = job.Primary
	r.report.Event.Epoch = job.Epoch
	return r.quiesce()
}

// sendChunk posts one NDJSON request through the router, retrying 429
// backpressure and the router's documented 502 failed-over-please-retry
// answer (the router never retries ingestion itself; the client owns the
// retry, and only the accepted attempt acks the chunk).
func (r *clusterRunner) sendChunk(chunk []answers.Answer) error {
	var body bytes.Buffer
	for _, a := range chunk {
		line, err := answers.MarshalAnswerJSON(a)
		if err != nil {
			return err
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	payload := body.Bytes()
	url := r.routerS.URL + "/v1/jobs/" + r.jobID + "/answers"
	deadline := time.Now().Add(quiesceTimeout)
	first := true
	for {
		if !first {
			r.report.Retried++
		}
		first = false
		resp, err := r.client.Post(url, "application/x-ndjson", bytes.NewReader(payload))
		status := 0
		if err == nil {
			status = resp.StatusCode
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		r.report.Requests++
		switch status {
		case http.StatusAccepted:
			return nil
		case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusGatewayTimeout, 0:
			if time.Now().After(deadline) {
				return fmt.Errorf("loadgen: ingestion never recovered (last status %d, err %v)", status, err)
			}
			time.Sleep(2 * time.Millisecond) // real: the cluster needs wall time
		default:
			return fmt.Errorf("loadgen: ingesting: status %d", status)
		}
	}
}

// quiesce waits until the owner has fitted and published everything acked
// and every live follower has applied the owner's full durable journal.
func (r *clusterRunner) quiesce() error {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		var st serve.JobStats
		err := r.routerGet("/v1/jobs/"+r.jobID, &st)
		if err == nil && st.Error == "" &&
			st.IngestedAnswers == int64(len(r.acked)) &&
			st.FittedAnswers == int64(len(r.acked)) &&
			st.SnapshotRound == int(st.FitRounds) &&
			r.followersCaughtUp(st.JournalBytes) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: cluster job never quiesced (stats %+v, err %v)", st, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *clusterRunner) followersCaughtUp(target int64) bool {
	job, ok := r.router.Info().Jobs[r.jobID]
	if !ok {
		return false
	}
	for _, f := range job.Followers {
		var st cluster.ReplicaStats
		if err := r.nodeGet(f, "/v1/replicate/"+r.jobID, &st); err != nil || st.AppliedBytes < target {
			return false
		}
	}
	return true
}

func (r *clusterRunner) routerGet(path string, v any) error {
	resp, err := r.client.Get(r.routerS.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (r *clusterRunner) nodeGet(name, path string, v any) error {
	cn, ok := r.nodes[name]
	if !ok {
		return fmt.Errorf("unknown node %q", name)
	}
	resp, err := r.client.Get(cn.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s%s: status %d", name, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (r *clusterRunner) addInvariant(name string, err error, passDetail string) {
	iv := InvariantResult{Name: name, Job: r.jobID, Status: StatusPass, Detail: passDetail}
	if err != nil {
		iv.Status = StatusFail
		iv.Detail = err.Error()
	}
	r.report.Invariants = append(r.report.Invariants, iv)
	if err != nil {
		r.cfg.Logf("INVARIANT FAIL %s[%s]: %v", name, r.jobID, err)
	}
}

func (r *clusterRunner) skipInvariant(name, why string) {
	r.report.Invariants = append(r.report.Invariants, InvariantResult{
		Name: name, Job: r.jobID, Status: StatusSkipped, Detail: why,
	})
}

// finalInvariants evaluates the cluster invariants at quiesce.
func (r *clusterRunner) finalInvariants() {
	info := r.router.Info()
	job := info.Jobs[r.jobID]
	owner := r.nodes[job.Primary]

	// ownership-transferred: the scenario's whole point happened.
	var ownErr error
	if job.Primary == "a" || job.Epoch == 0 {
		ownErr = fmt.Errorf("route still primary=%s epoch=%d after %s", job.Primary, job.Epoch, r.report.Event.Kind)
	}
	r.addInvariant("ownership-transferred", ownErr,
		fmt.Sprintf("%s a→%s at epoch %d", r.report.Event.Kind, job.Primary, job.Epoch))

	// acked-answers-durable: the final owner's journal holds every acked
	// answer, in ack order. The driver changes ownership between requests,
	// so the sequences must match exactly — nothing lost, nothing doubled.
	journalPath := owner.node.JournalPath(r.jobID)
	journaled, base, err := journalAnswers(journalPath)
	if err == nil {
		err = checkAckedDurable(journaled, r.acked, base.Ans)
	}
	r.addInvariant("acked-answers-durable", err,
		fmt.Sprintf("%d acked answers durable in order on %s across the %s",
			len(r.acked), job.Primary, r.report.Event.Kind))

	// served-equals-replay: the routed consensus is the offline replay of
	// the owner's journal, restart re-anchors and recorded publish modes
	// included.
	var snap serve.Snapshot
	if err := r.routerGet("/v1/jobs/"+r.jobID+"/consensus", &snap); err != nil {
		r.addInvariant("served-equals-replay", err, "")
	} else {
		r.addInvariant("served-equals-replay", CheckReplay(journalPath, r.spec, &snap),
			fmt.Sprintf("%d rounds bit-for-bit on promoted owner", snap.Round))
	}

	// follower-bit-identical: every live follower serves the owner's exact
	// snapshot through the router's verified ?replica= path.
	for _, f := range job.Followers {
		var fsnap serve.Snapshot
		err := r.routerGet("/v1/jobs/"+r.jobID+"/consensus?replica="+f, &fsnap)
		if err == nil {
			err = sameSnapshot(&snap, &fsnap)
		}
		r.addInvariant("follower-bit-identical", err,
			fmt.Sprintf("replica %s serves the owner snapshot exactly", f))
	}

	// deposed-primary-fenced: after a handoff the old primary must 409
	// direct ingestion. After a failover the old primary is dead.
	if r.cfg.Scenario == ClusterHandoffScenario {
		resp, err := r.client.Post(r.nodes["a"].ts.URL+"/v1/jobs/"+r.jobID+"/answers",
			"application/json", bytes.NewReader([]byte(`{"answers":[{"i":0,"u":0,"x":[0]}]}`)))
		var fenceErr error
		if err != nil {
			fenceErr = err
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusConflict {
				fenceErr = fmt.Errorf("deposed primary answered direct ingestion with status %d, want 409", resp.StatusCode)
			}
		}
		r.addInvariant("deposed-primary-fenced", fenceErr, "ex-primary 409s direct writes")
	} else {
		r.skipInvariant("deposed-primary-fenced", "failover scenario: the old primary is dead, not deposed")
	}
}
