package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"muse/internal/core"
	"muse/internal/designer"
	"muse/internal/mapping"
	"muse/internal/scenarios"
)

// slowDesigner simulates think time, giving the prefetcher room to
// finish.
type slowDesigner struct {
	inner core.GroupingDesigner
	delay time.Duration
}

func (s *slowDesigner) ChooseScenario(q *core.GroupingQuestion) (int, error) {
	time.Sleep(s.delay)
	return s.inner.ChooseScenario(q)
}

// TestPrefetchSameResult: the think-time prefetcher changes neither
// the inferred grouping function nor the question count nor which
// examples are real.
func TestPrefetchSameResult(t *testing.T) {
	run := func(prefetch bool) (*mapping.Mapping, core.SKStats) {
		f := scenarios.NewFigure1(false)
		f.Source.MustInsertVals("Companies", "113", "SBC", "Almaden")
		f.Source.MustInsertVals("Projects", "p3", "WiFi", "113", "e16")
		w := core.NewGroupingWizard(f.SrcDeps, f.Source)
		w.Prefetch = prefetch
		oracle := designer.NewGroupingOracle("SKProjects", []mapping.Expr{mapping.E("c", "cname")})
		d := &slowDesigner{inner: oracle, delay: 5 * time.Millisecond}
		out, err := w.DesignSK(f.M2, "SKProjects", d)
		if err != nil {
			t.Fatal(err)
		}
		return out, w.Stats.SKs[0]
	}
	plain, plainStats := run(false)
	pre, preStats := run(true)
	if plain.SKFor("SKProjects").SK.String() != pre.SKFor("SKProjects").SK.String() {
		t.Errorf("prefetch changed the result: %s vs %s",
			plain.SKFor("SKProjects").SK, pre.SKFor("SKProjects").SK)
	}
	if plainStats.Questions != preStats.Questions {
		t.Errorf("prefetch changed the question count: %d vs %d", plainStats.Questions, preStats.Questions)
	}
	if plainStats.RealExamples != preStats.RealExamples {
		t.Errorf("prefetch changed real-example usage: %d vs %d", plainStats.RealExamples, preStats.RealExamples)
	}
}

// TestPrefetchReducesWait: with generous think time, cached retrievals
// cost (almost) nothing at question time.
func TestPrefetchReducesWait(t *testing.T) {
	f := scenarios.NewFigure1(false)
	// Enough data that retrievals are measurable but quick.
	for i := 0; i < 50; i++ {
		cid := string(rune('A'+i%26)) + string(rune('A'+i/26))
		f.Source.MustInsertVals("Companies", cid, "IBM", "NY")
		f.Source.MustInsertVals("Projects", "px"+cid, "P"+cid, cid, "e14")
	}
	w := core.NewGroupingWizard(f.SrcDeps, f.Source)
	w.Prefetch = true
	oracle := designer.NewGroupingOracle("SKProjects", []mapping.Expr{mapping.E("c", "cname")})
	d := &slowDesigner{inner: oracle, delay: 20 * time.Millisecond}
	if _, err := w.DesignSK(f.M2, "SKProjects", d); err != nil {
		t.Fatal(err)
	}
	// Sanity only: the run completed, asked the full question sequence,
	// and recorded sensible (non-negative) example times.
	rec := w.Stats.SKs[0]
	if rec.Questions == 0 {
		t.Error("no questions asked")
	}
	if rec.ExampleTime < 0 {
		t.Error("negative example time")
	}
}

// posed records each grouping question a designer is asked, then
// answers it through inner.
type posed struct {
	inner core.GroupingDesigner
	log   []string
}

func (p *posed) ChooseScenario(q *core.GroupingQuestion) (int, error) {
	p.log = append(p.log, fmt.Sprintf("%s %s real=%v", q.SK, q.Probe, q.Real))
	return p.inner.ChooseScenario(q)
}

// TestStepperPrefetchMatchesSessionRun: with the prefetcher on, a
// Stepper poses the questions Session.Run poses, real examples
// included — the retrievals a call starts for the designer's think
// time still complete after that call returns.
func TestStepperPrefetchMatchesSessionRun(t *testing.T) {
	fig := func() *scenarios.Figure1 {
		f := scenarios.NewFigure1(false)
		f.Source.MustInsertVals("Companies", "113", "SBC", "Almaden")
		f.Source.MustInsertVals("Projects", "p3", "WiFi", "113", "e16")
		return f
	}
	f := fig()
	run := &posed{inner: fig1Oracle()}
	want, err := core.NewSession(f.SrcDeps, f.Source).Run(f.Set, run, nil)
	if err != nil {
		t.Fatal(err)
	}

	f = fig()
	s := core.NewSession(f.SrcDeps, f.Source)
	s.Grouping.Prefetch = true
	st := core.NewStepper(context.Background(), s, f.Set)
	defer st.Close()
	stepped := &posed{inner: fig1Oracle()}
	final := driveStepper(t, st, stepped, nil)
	if final.Err != nil {
		t.Fatal(final.Err)
	}
	if got, want := strings.Join(stepped.log, "\n"), strings.Join(run.log, "\n"); got != want {
		t.Fatalf("prefetching stepper posed different questions:\n--- stepper ---\n%s\n--- Session.Run ---\n%s", got, want)
	}
	if !strings.Contains(strings.Join(run.log[1:], "\n"), "real=true") {
		t.Fatalf("no real example after the first question, so prefetch is untested:\n%s", strings.Join(run.log, "\n"))
	}
	if got, want := formatSet(final.Result), formatSet(want); got != want {
		t.Fatalf("prefetching stepper result differs:\n%s\nvs\n%s", got, want)
	}
	if got := s.Grouping.Stats.SKs[0].RealExamples; got == 0 {
		t.Fatal("prefetching stepper used no real example")
	}
}
