package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"muse/internal/chase"
	"muse/internal/core"
	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
	"muse/internal/parser"
	"muse/internal/scenarios"
)

// exchange: in-process data exchange from a single caller. One op is
// one pass that chases all four Sec. VI sources with their
// disambiguated mapping sets (every ambiguous mapping's first
// interpretation, as BenchmarkChaseScenario) at scale 0.02, in a
// seeded order. A pass is the op, not a single chase, so the median
// never falls between two scenarios' modes. A resume here is what a
// fresh process pays to rebuild the design that produced those
// mapping sets: core.ResumeStepper replays each scenario's stored
// Muse-D answers up to the first Muse-G question.
const (
	exTailQ = 0.8
	exScale = 0.02
	// A resume sample follows every exResumeEvery-th pass, so the
	// samples spread over the window like the passes do and a few
	// seconds of a slow or fast box do not decide their median.
	exResumeEvery = 4
	// setup_s is the median of exSetupSamples samples of exSetupBatch
	// set-ups each.
	exSetupSamples = 21
	exSetupBatch   = 4
)

type exScenario struct {
	name string
	src  *deps.Set
	set  *mapping.Set
	ms   []*mapping.Mapping // the disambiguated mapping set chased
	in   *instance.Instance
	// Checking state, built once outside every timed section.
	ref      *instance.Instance // ChaseSerial target
	dAnswers []core.Answer      // Muse-D answers selecting ms
	refStep  string             // the pending step after those answers
}

// exBuild is the exchange set-up: scenario generation and the source
// instances.
func exBuild() ([]*exScenario, error) {
	var out []*exScenario
	for _, name := range exchangeScenarios {
		s, err := scenarios.ByName(name)
		if err != nil {
			return nil, err
		}
		set, err := s.Generate()
		if err != nil {
			return nil, err
		}
		var ms []*mapping.Mapping
		for _, m := range set.Mappings {
			if m.Ambiguous() {
				m = m.Interpretation(make([]int, len(m.OrGroups)))
			}
			ms = append(ms, m)
		}
		out = append(out, &exScenario{name: s.Name, src: s.Src, set: set, ms: ms, in: s.NewInstance(exScale)})
	}
	return out, nil
}

// firstChoices answers a Muse-D question with every or-group's first
// alternative, the interpretation the chased mapping sets use.
type firstChoices struct{}

func (firstChoices) SelectValues(q *core.ChoiceQuestion) ([][]int, error) {
	out := make([][]int, len(q.Choices))
	for i := range out {
		out[i] = []int{0}
	}
	return out, nil
}

func (x *exScenario) session() *core.Session {
	cs := core.NewSession(x.src, x.in)
	cs.Grouping.Prefetch = false
	return cs
}

// describe renders a step for the resume check.
func describe(st core.Step) string {
	switch {
	case st.Grouping != nil:
		q := st.Grouping
		return fmt.Sprintf("%d grouping %s %s %v\n%s\n%s", st.Seq, q.SK, q.Probe, q.Real,
			parser.FormatMapping(q.Mapping), q.Source)
	case st.Choice != nil:
		return fmt.Sprintf("%d choice %s\n%s", st.Seq, parser.FormatMapping(st.Choice.Mapping), st.Choice.Source)
	}
	return fmt.Sprintf("%d done %v", st.Seq, st.Err)
}

// prepareChecks builds the references: the serial chase's target, and
// the uninterrupted dialog's answers and pending step at the hand-off.
func (x *exScenario) prepareChecks() error {
	ref, err := chase.ChaseSerial(x.in, x.ms...)
	if err != nil {
		return err
	}
	x.ref = ref
	ctx := context.Background()
	st := core.NewStepper(ctx, x.session(), x.set)
	defer st.Close()
	for {
		step, err := st.Step(ctx)
		if err != nil {
			return err
		}
		if step.Choice == nil {
			x.refStep = describe(step)
			return nil
		}
		sel, _ := firstChoices{}.SelectValues(step.Choice)
		a := core.Answer{Choices: sel}
		x.dAnswers = append(x.dAnswers, a)
		if _, err := st.Answer(ctx, a); err != nil {
			return err
		}
	}
}

// resume replays the stored Muse-D answers and returns the pending
// step's description.
func (x *exScenario) resume() (string, error) {
	ctx := context.Background()
	st, err := core.ResumeStepper(ctx, x.session(), x.set, x.dAnswers)
	if err != nil {
		return "", err
	}
	defer st.Close()
	step, err := st.Step(ctx)
	if err != nil {
		return "", err
	}
	return describe(step), nil
}

func runExchange(cfg config, traced bool) (*report, error) {
	rep := newReport()
	zeroLayers(rep)
	xs, err := exBuild()
	if err != nil {
		return nil, err
	}
	for _, x := range xs {
		if err := x.prepareChecks(); err != nil {
			return nil, fmt.Errorf("%s: %w", x.name, err)
		}
	}

	var o *obs.Obs
	var sink *spanSink
	if traced {
		o = obs.New()
		sink = attachSink(o)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	order := make([]int, len(xs))
	var passes []span
	var lat []float64
	callMs := map[string][]float64{}
	callKB := map[string][]float64{}
	var allocs uint64
	var busy time.Duration

	var resumes []float64
	answers := 0
	resumeSample := func() error {
		t0 := time.Now()
		got := make([]string, len(xs))
		for j, x := range xs {
			var err error
			if got[j], err = x.resume(); err != nil {
				return fmt.Errorf("%s resume: %w", x.name, err)
			}
			answers += len(x.dAnswers) + 1 // the stored answers and the pending question
		}
		resumes = append(resumes, ms(time.Since(t0)))
		rep.attempted++
		for j, x := range xs {
			if got[j] != x.refStep {
				rep.fail("%s resumed step differs from the uninterrupted dialog's", x.name)
				break
			}
		}
		return nil
	}

	peak := startHeapPeak()
	deadline := cfg.deadline()
	hardStop := deadline.Add(60 * time.Second)
	for now := time.Now(); now.Before(hardStop) && (now.Before(deadline) || len(lat) < minOps(exTailQ)); now = time.Now() {
		for i, j := range rng.Perm(len(xs)) {
			order[i] = j
		}
		// No collection is forced between passes: the collector runs
		// when the passes' garbage makes it, and its time is the
		// exchange's.
		outs := make([]*instance.Instance, len(xs))
		m0 := readMem()
		t0 := time.Now()
		for _, j := range order {
			x := xs[j]
			c0, a0 := time.Now(), readMem().allocs
			var out *instance.Instance
			var err error
			if traced {
				out, err = chase.ChaseObs(x.in, o, x.ms...)
				callMs[x.name] = append(callMs[x.name], ms(time.Since(c0)))
				callKB[x.name] = append(callKB[x.name], float64(readMem().allocs-a0)/1024)
			} else {
				out, err = chase.Chase(x.in, x.ms...)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", x.name, err)
			}
			outs[j] = out
		}
		d := time.Since(t0)
		allocs += readMem().allocs - m0.allocs
		busy += d
		lat = append(lat, ms(d))
		passes = append(passes, span{t0, t0.Add(d)})
		// The check and the resume samples run outside the op: their
		// time is not the exchange's.
		rep.attempted++
		for j, x := range xs {
			if !outs[j].Equal(x.ref) {
				rep.fail("%s target differs from the serial chase's", x.name)
				break
			}
		}
		if len(lat)%exResumeEvery == 0 {
			if err := resumeSample(); err != nil {
				return nil, err
			}
		}
	}
	n := float64(len(lat))
	rep.e2e["op_p50_ms"] = median(lat)
	rep.e2e["op_tail_ms"] = quantile(lat, exTailQ)
	rep.e2e["ops_per_s"] = n / busy.Seconds()
	rep.e2e["alloc_kb_per_op"] = float64(allocs) / 1024 / n
	rep.e2e["peak_heap_mb"] = peak.Stop()
	rep.env["ops"] = len(lat)
	rep.env["tail_quantile"] = exTailQ

	rep.e2e["resume_p50_ms"] = median(resumes)
	rep.e2e["success_ratio"] = ratio(float64(rep.attempted-rep.failed), float64(rep.attempted))

	if traced {
		spans, err := sink.dump(cfg.out, "spans-exchange.jsonl")
		if err != nil {
			return nil, err
		}
		exchangeLayers(rep, spans, passes, lat)
		for _, x := range xs {
			rep.layers["chase."+x.name+"_ms"] = median(callMs[x.name])
			rep.layers["chase."+x.name+"_alloc_kb"] = median(callKB[x.name])
		}
		rep.layers["chase.workers"] = float64(o.Registry().Get(obs.GChaseWorkers))
		rep.layers["core.replay_ms_per_answer"] = ratio(sum(resumes), float64(answers))
		rep.layers["instance.target_kb"] = targetKB(xs)
	}

	// Set-up is timed after the window, as on the wire workloads.
	setup, err := setupTimes(exSetupSamples, exSetupBatch, func() (func(), error) {
		_, err := exBuild()
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	return rep, nil
}

// exchangeLayers attributes each pass's time to the chase spans that
// started inside it.
func exchangeLayers(rep *report, spans []obs.SpanRecord, passes []span, lat []float64) {
	var chaseMs, unattr []float64
	var calls, tuples float64
	for i, p := range passes {
		var iv []span
		for _, s := range spans {
			if s.Start.Before(p.a) || s.Start.After(p.b) {
				continue
			}
			switch s.Name {
			case obs.SpanChase:
				calls++
				iv = append(iv, spanOf(s))
			case obs.SpanChaseMapping:
				tuples += attrNum(s, "tuples")
				iv = append(iv, spanOf(s))
			}
		}
		c := ms(union(iv, p.a, p.b))
		chaseMs = append(chaseMs, c)
		unattr = append(unattr, lat[i]-c)
	}
	rep.layers["chase.self_ms_p50"] = median(chaseMs)
	rep.layers["chase.calls_per_step"] = ratio(calls, float64(len(passes)))
	rep.layers["chase.tuples_per_call"] = ratio(tuples, calls)
	rep.layers["unattributed_ms_p50"] = median(unattr)
}

// targetKB is the live heap the four targets of one pass hold.
func targetKB(xs []*exScenario) float64 {
	outs := make([]*instance.Instance, len(xs))
	h0 := liveHeap()
	for j, x := range xs {
		outs[j], _ = chase.Chase(x.in, x.ms...) // every pass made the same calls without error
	}
	h1 := liveHeap()
	runtime.KeepAlive(outs)
	return (float64(h1) - float64(h0)) / 1024
}
