package loadgen

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cpa/internal/answers"
	"cpa/internal/capacity"
	"cpa/internal/core"
	"cpa/internal/obs"
	"cpa/internal/serve"
)

// CapacitySweepScenario is the cpaload -scenario name that dispatches
// RunCapacity instead of the closed-loop harness. It is not part of
// "-scenario all": a sweep re-runs its scenarios dozens of times.
const CapacitySweepScenario = "capacity-sweep"

// abMeasuredPasses / abWarmupPasses fix the A/B measurement protocol: both
// arms ingest the stream abWarmupPasses times unmeasured (the auto-tuned arm
// spends this converging from its deliberately bad start; the static arm
// gets the identical allowance), then abMeasuredPasses times on the clock.
const (
	abWarmupPasses   = 3
	abMeasuredPasses = 2
)

// tuneUnit is the answers-per-load-unit normalization of the mini-batch
// dimension, matching the serve tuner's ladder base so the sweep's fitted
// knee and the auto-tuner's speak the same units.
const tuneUnit = 16

// CapacityConfig parameterises one capacity sweep (RunCapacity).
type CapacityConfig struct {
	// Scenarios names the workload scenarios to sweep. Default
	// {"uniform", "partial-heavy"} — two profiles with different
	// per-answer fit cost.
	Scenarios []string

	// Scale / Seed are as in Config. Defaults 0.05 / 1.
	Scale float64
	Seed  int64

	// MaxParallelism caps the Parallelism ladder. Default
	// max(4, GOMAXPROCS) — at least three rungs so the USL fit is
	// determined even on two-core CI machines, and deliberately allowed
	// past the core count (the retrograde region is data, not waste).
	MaxParallelism int

	// MaxBatch caps the mini-batch ladder in answers. Default 256.
	MaxBatch int

	// MaxClients caps the offered-concurrency ladder (concurrent ingestion
	// clients). Default 8.
	MaxClients int

	// Warmup is how many unmeasured passes of the stream precede each
	// measured rung. Default 1; negative disables (tests).
	Warmup int

	// DataDir roots the per-rung server directories. Empty uses a
	// temporary directory removed after the run.
	DataDir string

	// Logf receives progress lines. Nil is silent.
	Logf func(format string, args ...any)
}

func (c CapacityConfig) withDefaults() CapacityConfig {
	if len(c.Scenarios) == 0 {
		c.Scenarios = []string{"uniform", "partial-heavy"}
	}
	if c.Scale == 0 {
		c.Scale = 0.12
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxParallelism == 0 {
		c.MaxParallelism = max(4, runtime.GOMAXPROCS(0))
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.MaxClients == 0 {
		c.MaxClients = 8
	}
	if c.Warmup == 0 {
		c.Warmup = 1
	} else if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// CapacityRung is one measured (setting, steady-state throughput) sample.
type CapacityRung struct {
	// Setting is the knob value in its natural units (goroutines, answers
	// per mini-batch, concurrent clients); N is the same point in the
	// dimension's USL load units (Setting / Unit).
	Setting       int             `json:"setting"`
	N             float64         `json:"n"`
	Answers       int             `json:"answers"`
	DurationSec   float64         `json:"duration_seconds"`
	AnswersPerSec float64         `json:"answers_per_second"`
	Ingest        obs.HistSummary `json:"ingest_latency"`
}

// CapacityDimension is one swept knob: its measured ladder and the USL
// curve fitted over it.
type CapacityDimension struct {
	// Name is "parallelism", "batch", or "concurrency".
	Name string `json:"name"`
	// Unit is the answers-per-load-unit normalization (tuneUnit for the
	// batch dimension, 1 otherwise).
	Unit  int            `json:"unit"`
	Rungs []CapacityRung `json:"rungs"`
	// Fit is the USL curve over (N, AnswersPerSec); FitError explains its
	// absence (too few rungs survived).
	Fit      *capacity.Fit `json:"usl_fit,omitempty"`
	FitError string        `json:"fit_error,omitempty"`
	// BestSetting / BestAnswersPerSec name the best *measured* rung — the
	// hand-swept optimum the auto-tune A/B is judged against.
	BestSetting       int     `json:"best_setting"`
	BestAnswersPerSec float64 `json:"best_answers_per_second"`
}

// AutoTuneAB is the measured claim of the capacity work: a job started at
// deliberately bad settings with AutoTune on, run under the identical
// measurement protocol as a job pinned at the best hand-swept settings.
type AutoTuneAB struct {
	StartParallelism int `json:"start_parallelism"`
	StartBatch       int `json:"start_batch"`
	FinalParallelism int `json:"final_parallelism"`
	FinalBatch       int `json:"final_batch"`
	BestParallelism  int `json:"best_parallelism"`
	BestBatch        int `json:"best_batch"`
	BestClients      int `json:"best_clients"`

	BestAnswersPerSec  float64 `json:"best_answers_per_second"`
	TunedAnswersPerSec float64 `json:"auto_tune_answers_per_second"`
	// Ratio is tuned/best steady-state throughput; CI asserts ≥ 0.9.
	Ratio float64 `json:"ratio"`

	// Tuner is the auto-tuned job's final live fit state (/statsz view).
	Tuner *serve.AutoTuneStats `json:"tuner,omitempty"`
}

// CapacityScenarioReport is one scenario's sweep: the three dimensions,
// the A/B, and the behavioural invariants re-checked under auto-tuning.
type CapacityScenarioReport struct {
	Scenario      string              `json:"scenario"`
	Profile       string              `json:"profile"`
	StreamAnswers int                 `json:"stream_answers"`
	Dimensions    []CapacityDimension `json:"dimensions"`
	AutoTune      *AutoTuneAB         `json:"auto_tune"`
	Invariants    []InvariantResult   `json:"invariants"`
}

// CapacityReport is the cpaload -json row a capacity sweep emits. It shares
// the envelope conventions of the scenario Report (generated_at / seed /
// go_version / gomaxprocs) and carries kind "capacity-sweep" so mixed report
// arrays stay machine-separable.
type CapacityReport struct {
	GeneratedAt string  `json:"generated_at"`
	Kind        string  `json:"kind"`
	Scenario    string  `json:"scenario"`
	Scale       float64 `json:"scale"`
	Seed        int64   `json:"seed"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`

	Scenarios []CapacityScenarioReport `json:"scenarios"`

	DurationSec float64 `json:"duration_seconds"`
}

// Failed returns the invariants that failed, across all swept scenarios.
func (r *CapacityReport) Failed() []InvariantResult {
	var out []InvariantResult
	for _, sc := range r.Scenarios {
		for _, iv := range sc.Invariants {
			if iv.Status == StatusFail {
				out = append(out, iv)
			}
		}
	}
	return out
}

// Summary renders a short human-readable digest for CLI output.
func (r *CapacityReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "capacity-sweep  %d scenarios  %.1fs", len(r.Scenarios), r.DurationSec)
	for _, sc := range r.Scenarios {
		fmt.Fprintf(&b, "\n  %s (%d answers/pass)", sc.Scenario, sc.StreamAnswers)
		for _, d := range sc.Dimensions {
			if d.Fit != nil {
				fmt.Fprintf(&b, "\n    %-12s best %d @ %.0f ans/s   γ=%.1f α=%.3f β=%.5f knee=%.1f resid=%.3f",
					d.Name, d.BestSetting, d.BestAnswersPerSec,
					d.Fit.Gamma, d.Fit.Alpha, d.Fit.Beta, d.Fit.Knee, d.Fit.Residual)
			} else {
				fmt.Fprintf(&b, "\n    %-12s best %d @ %.0f ans/s   (no fit: %s)",
					d.Name, d.BestSetting, d.BestAnswersPerSec, d.FitError)
			}
		}
		if ab := sc.AutoTune; ab != nil {
			fmt.Fprintf(&b, "\n    auto-tune    P=%d bs=%d → P=%d bs=%d   %.0f vs best %.0f ans/s   ratio=%.3f",
				ab.StartParallelism, ab.StartBatch, ab.FinalParallelism, ab.FinalBatch,
				ab.TunedAnswersPerSec, ab.BestAnswersPerSec, ab.Ratio)
		}
		for _, iv := range sc.Invariants {
			if iv.Status == StatusFail {
				fmt.Fprintf(&b, "\n    FAIL %s[%s]: %s", iv.Name, iv.Job, iv.Detail)
			}
		}
	}
	return b.String()
}

// RunCapacity sweeps each scenario's deterministic answer stream across
// ladders of Parallelism, mini-batch size and offered ingestion concurrency,
// measures per-rung steady-state throughput and ingest latency, fits the USL
// per dimension (densifying around the emerging knee), and runs the
// auto-tune A/B. Invariant failures are data (Report.Failed()); an error
// return means the sweep itself could not complete.
//
// The sweep drives the serving core directly (journal, queue, fitter) rather
// than over HTTP: capacity here is the fitter's, and the closed-loop HTTP
// surface is what Run already exercises.
func RunCapacity(cfg CapacityConfig) (*CapacityReport, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	r := &capRunner{cfg: cfg, logf: cfg.Logf}
	if r.dir = cfg.DataDir; r.dir == "" {
		dir, err := os.MkdirTemp("", "cpacap-*")
		if err != nil {
			return nil, err
		}
		r.dir, r.own = dir, true
	}
	defer func() {
		if r.own {
			os.RemoveAll(r.dir)
		}
	}()

	rep := &CapacityReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Kind:        CapacitySweepScenario,
		Scenario:    CapacitySweepScenario,
		Scale:       cfg.Scale,
		Seed:        cfg.Seed,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	for _, name := range cfg.Scenarios {
		scr, err := r.sweepScenario(name)
		if err != nil {
			return nil, fmt.Errorf("loadgen: capacity sweep %q: %w", name, err)
		}
		rep.Scenarios = append(rep.Scenarios, *scr)
	}
	rep.DurationSec = time.Since(start).Seconds()
	return rep, nil
}

type capRunner struct {
	cfg  CapacityConfig
	dir  string
	own  bool
	logf func(string, ...any)
	rung int // monotone counter naming per-rung directories
	// tunedInvs holds the invariant results of the latest tuned A/B arm,
	// filled by the checkTunedArm hook.
	tunedInvs []InvariantResult
}

// capDim describes one sweep dimension: how a setting (in load units) maps
// onto the job's model config and the drive protocol.
type capDim struct {
	name    string
	unit    int
	maxUnit int
	apply   func(m *core.Config, clients *int, units int)
}

func (r *capRunner) dims() []capDim {
	return []capDim{
		{
			name: "parallelism", unit: 1, maxUnit: r.cfg.MaxParallelism,
			apply: func(m *core.Config, _ *int, u int) { m.Parallelism = u },
		},
		{
			name: "batch", unit: tuneUnit, maxUnit: max(1, r.cfg.MaxBatch/tuneUnit),
			apply: func(m *core.Config, _ *int, u int) { m.BatchSize = u * tuneUnit },
		},
		{
			name: "concurrency", unit: 1, maxUnit: r.cfg.MaxClients,
			apply: func(_ *core.Config, clients *int, u int) { *clients = u },
		},
	}
}

func (r *capRunner) sweepScenario(name string) (*CapacityScenarioReport, error) {
	sc, err := GetScenario(name)
	if err != nil {
		return nil, err
	}
	pl, err := buildPlan(sc, r.cfg.Scale, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	tp := pl.tenants[0]
	scr := &CapacityScenarioReport{
		Scenario: name, Profile: tp.profile, StreamAnswers: len(tp.stream),
	}
	for _, d := range r.dims() {
		dim, err := r.sweepDimension(sc, tp, d)
		if err != nil {
			return nil, err
		}
		scr.Dimensions = append(scr.Dimensions, *dim)
	}
	ab, invs, err := r.runAB(sc, tp, scr.Dimensions)
	if err != nil {
		return nil, err
	}
	scr.AutoTune = ab
	scr.Invariants = invs
	return scr, nil
}

// sweepDimension probes the dimension's log ladder, fits, then densifies
// around the fitted knee and refits.
func (r *capRunner) sweepDimension(sc Scenario, tp *tenantPlan, d capDim) (*CapacityDimension, error) {
	dim := &CapacityDimension{Name: d.name, Unit: d.unit}
	ladder := capacity.Plan(1, d.maxUnit)
	var obs []capacity.Observation
	probe := func(units int) error {
		model, clients := tp.spec.Model, 1
		d.apply(&model, &clients, units)
		if model.AnswerWindow > 0 && model.BatchSize > model.AnswerWindow {
			return nil // core rejects a batch wider than the answer window
		}
		res, err := r.runSetting(sc, tp, model, clients, serve.Config{}, r.cfg.Warmup, 1,
			fmt.Sprintf("%s-%s-%d", sc.Name, d.name, units*d.unit))
		if err != nil {
			return err
		}
		x := float64(res.answers) / res.dur.Seconds()
		r.logf("capacity: %s %s=%d: %.0f answers/s", sc.Name, d.name, units*d.unit, x)
		dim.Rungs = append(dim.Rungs, CapacityRung{
			Setting: units * d.unit, N: float64(units),
			Answers: res.answers, DurationSec: res.dur.Seconds(),
			AnswersPerSec: x, Ingest: res.ingest,
		})
		obs = append(obs, capacity.Observation{N: float64(units), X: x})
		return nil
	}
	for _, u := range ladder {
		if err := probe(u); err != nil {
			return nil, err
		}
	}
	fit, err := capacity.FitUSL(obs, r.cfg.Seed)
	if err == nil {
		probed := make([]int, 0, len(dim.Rungs))
		for _, rg := range dim.Rungs {
			probed = append(probed, int(rg.N))
		}
		for _, u := range capacity.Densify(fit.Knee, probed, 1, d.maxUnit) {
			if perr := probe(u); perr != nil {
				return nil, perr
			}
		}
		fit, err = capacity.FitUSL(obs, r.cfg.Seed)
	}
	if err != nil {
		dim.FitError = err.Error()
	} else {
		dim.Fit = &fit
	}
	for _, rg := range dim.Rungs {
		if rg.AnswersPerSec > dim.BestAnswersPerSec {
			dim.BestSetting, dim.BestAnswersPerSec = rg.Setting, rg.AnswersPerSec
		}
	}
	return dim, nil
}

// runAB measures the auto-tune A/B: a job pinned at the best hand-swept
// settings versus a job started at the worst reasonable settings with the
// tuner on, under the identical warmup + measured-passes protocol. The
// tuned arm is then crash-checked: served≡replay from its journal (tune
// annotations included) and bit-exact recovery by an AutoTune-off registry.
func (r *capRunner) runAB(sc Scenario, tp *tenantPlan, dims []CapacityDimension) (*AutoTuneAB, []InvariantResult, error) {
	ab := &AutoTuneAB{
		StartParallelism: 1, StartBatch: tuneUnit,
		BestParallelism: tp.spec.Model.Parallelism, BestBatch: tp.spec.Model.BatchSize, BestClients: 1,
	}
	for _, d := range dims {
		if d.BestSetting == 0 {
			continue
		}
		switch d.Name {
		case "parallelism":
			ab.BestParallelism = d.BestSetting
		case "batch":
			ab.BestBatch = d.BestSetting
		case "concurrency":
			ab.BestClients = d.BestSetting
		}
	}

	// Arm A: pinned at the best hand-swept rung of every dimension.
	best := tp.spec.Model
	best.Parallelism, best.BatchSize = ab.BestParallelism, ab.BestBatch
	bestRes, err := r.runSetting(sc, tp, best, ab.BestClients, serve.Config{},
		abWarmupPasses, abMeasuredPasses, sc.Name+"-ab-best")
	if err != nil {
		return nil, nil, err
	}
	ab.BestAnswersPerSec = float64(bestRes.answers) / bestRes.dur.Seconds()

	// Arm B: bad start, tuner on, window 1 for the fastest adaptation.
	tuned := tp.spec.Model
	tuned.Parallelism, tuned.BatchSize = ab.StartParallelism, ab.StartBatch
	scfg := serve.Config{AutoTune: true, AutoTuneWindow: 1, AutoTuneMaxParallelism: r.cfg.MaxParallelism}
	dir := filepath.Join(r.dir, fmt.Sprintf("r%d-%s-ab-tuned", r.rung, sc.Name))
	r.rung++
	tunedRes, err := r.runSettingAt(sc, tp, tuned, ab.BestClients, scfg, abWarmupPasses, abMeasuredPasses, dir, r.checkTunedArm(tp, tuned, ab))
	if err != nil {
		return nil, nil, err
	}
	ab.TunedAnswersPerSec = float64(tunedRes.answers) / tunedRes.dur.Seconds()
	if ab.BestAnswersPerSec > 0 {
		ab.Ratio = ab.TunedAnswersPerSec / ab.BestAnswersPerSec
	}
	r.logf("capacity: %s auto-tune A/B: %.0f vs %.0f answers/s (ratio %.3f)",
		sc.Name, ab.TunedAnswersPerSec, ab.BestAnswersPerSec, ab.Ratio)
	return ab, r.tunedInvs, nil
}

// checkTunedArm returns the post-measurement hook run on the tuned arm's
// live registry: capture tuner state, hard-kill, replay-check, recover.
func (r *capRunner) checkTunedArm(tp *tenantPlan, startModel core.Config, ab *AutoTuneAB) func(reg *serve.Registry, job *serve.Job, dir string) error {
	return func(reg *serve.Registry, job *serve.Job, dir string) error {
		st := job.Stats()
		if st.AutoTune == nil {
			return fmt.Errorf("auto-tuned job reports no tuner state")
		}
		ab.Tuner = st.AutoTune
		ab.FinalParallelism = st.AutoTune.Parallelism.Current
		ab.FinalBatch = st.AutoTune.BatchSize.Current

		pre := job.Snapshot()
		reg.CrashAll()

		spec := tp.spec
		spec.Model = startModel
		r.tunedInvs = r.tunedInvs[:0]
		add := func(name string, err error) {
			iv := InvariantResult{Name: name, Job: spec.ID, Status: StatusPass}
			if err != nil {
				iv.Status, iv.Detail = StatusFail, err.Error()
			}
			r.tunedInvs = append(r.tunedInvs, iv)
		}
		add("served-equals-replay", CheckReplay(serve.JournalPath(dir, spec.ID), spec, pre))

		// Recovery by an AutoTune-off registry doubles as the downgrade-
		// tolerance check: tune annotations must be inert to consumers that
		// have never heard of them.
		reg2, err := serve.Open(serve.Config{Dir: dir, BatchWait: 2 * time.Millisecond})
		if err != nil {
			return fmt.Errorf("reopening tuned arm: %w", err)
		}
		defer reg2.Close()
		job2, ok := reg2.Get(spec.ID)
		if !ok {
			add("crash-recovery-exact", fmt.Errorf("job %s not recovered", spec.ID))
			return nil
		}
		add("crash-recovery-exact", sameSnapshot(pre, job2.Snapshot()))
		return nil
	}
}

type rungResult struct {
	answers int
	dur     time.Duration
	ingest  obs.HistSummary
}

// runSetting measures one rung in a fresh per-rung directory, removed after.
func (r *capRunner) runSetting(sc Scenario, tp *tenantPlan, model core.Config, clients int, scfg serve.Config, warmup, measured int, tag string) (*rungResult, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("r%d-%s", r.rung, tag))
	r.rung++
	return r.runSettingAt(sc, tp, model, clients, scfg, warmup, measured, dir, nil)
}

// runSettingAt is runSetting with an explicit directory and an optional
// post-measurement hook that receives the still-open registry (the tuned
// arm's crash and replay checks). The directory is removed on return.
func (r *capRunner) runSettingAt(sc Scenario, tp *tenantPlan, model core.Config, clients int, scfg serve.Config, warmup, measured int, dir string, after func(*serve.Registry, *serve.Job, string) error) (*rungResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	scfg.Dir = dir
	if scfg.BatchWait == 0 {
		scfg.BatchWait = 2 * time.Millisecond
	}
	if scfg.SaveEvery == 0 {
		// No mid-run checkpoints: rung cost is ingest + fit + journal, and
		// the tuned arm's recovery check replays its journal from scratch.
		scfg.SaveEvery = 1 << 20
	}
	reg, err := serve.Open(scfg)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			reg.Close()
		}
	}()
	spec := tp.spec
	spec.Model = model
	job, err := reg.Create(spec)
	if err != nil {
		return nil, err
	}

	var done int64
	pass := func(h *lockedHist) error {
		if err := ingestPass(job, tp.stream, sc.chunk(), clients, h); err != nil {
			return err
		}
		done += int64(len(tp.stream))
		return quiesceJob(job, done)
	}
	for p := 0; p < warmup; p++ {
		if err := pass(nil); err != nil {
			return nil, err
		}
	}
	h := &lockedHist{}
	start := time.Now()
	for p := 0; p < measured; p++ {
		if err := pass(h); err != nil {
			return nil, err
		}
	}
	res := &rungResult{
		answers: measured * len(tp.stream),
		dur:     time.Since(start),
		ingest:  h.summary(),
	}
	if res.dur <= 0 {
		res.dur = time.Nanosecond
	}
	if after != nil {
		if err := after(reg, job, dir); err != nil {
			return nil, err
		}
		closed = true // after crashed/closed the registry itself
		return res, nil
	}
	if err := reg.Close(); err != nil {
		return nil, err
	}
	closed = true
	return res, nil
}

// ingestPass pushes the whole stream through Job.Ingest from `clients`
// concurrent goroutines, chunked as the scenario would, retrying queue-full
// backpressure. Chunks are claimed off a shared counter, so higher client
// counts interleave the arrival order — legal by construction (the journal
// records whatever order was acked, and every invariant holds for every
// legal order).
func ingestPass(job *serve.Job, stream []answers.Answer, chunk, clients int, h *lockedHist) error {
	if clients < 1 {
		clients = 1
	}
	nChunks := (len(stream) + chunk - 1) / chunk
	var next atomic.Int64
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= nChunks {
					return
				}
				lo := k * chunk
				hi := min(lo+chunk, len(stream))
				for {
					t0 := time.Now()
					err := job.Ingest(stream[lo:hi])
					if h != nil {
						h.observe(time.Since(t0))
					}
					if err == nil {
						break
					}
					if errors.Is(err, serve.ErrQueueFull) {
						time.Sleep(200 * time.Microsecond)
						continue
					}
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// quiesceJob waits until the job has fitted and published everything
// ingested so far.
func quiesceJob(job *serve.Job, want int64) error {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		st := job.Stats()
		if st.Error != "" {
			return fmt.Errorf("job %s failed: %s", st.ID, st.Error)
		}
		if st.IngestedAnswers == want && st.FittedAnswers == want &&
			st.QueueDepth == 0 && int64(st.SnapshotRound) == st.FitRounds {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("quiesce timeout: ingested=%d fitted=%d want=%d round=%d/%d",
				st.IngestedAnswers, st.FittedAnswers, want, st.SnapshotRound, st.FitRounds)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
