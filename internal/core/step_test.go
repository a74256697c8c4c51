package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"muse/internal/core"
	"muse/internal/designer"
	"muse/internal/mapping"
	"muse/internal/parser"
	"muse/internal/scenarios"
)

func formatSet(s *mapping.Set) string {
	out := ""
	for _, m := range s.Mappings {
		out += parser.FormatMapping(m) + "\n"
	}
	return out
}

// fig1Oracle scripts the intended Fig. 1 design: projects grouped by
// company name.
func fig1Oracle() *designer.GroupingOracle {
	return &designer.GroupingOracle{Desired: map[string][]mapping.Expr{
		"SKProjects": {mapping.E("c", "cname")},
	}}
}

// driveStepper answers every pending question of st with the given
// oracles until the terminal step, which it returns.
func driveStepper(t *testing.T, st *core.Stepper, gd core.GroupingDesigner, choices [][]int) core.Step {
	t.Helper()
	for i := 0; i < 100; i++ {
		step, err := st.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if step.Done {
			return step
		}
		var a core.Answer
		switch {
		case step.Grouping != nil:
			ans, err := gd.ChooseScenario(step.Grouping)
			if err != nil {
				t.Fatal(err)
			}
			a = core.Answer{Scenario: ans}
		case step.Choice != nil:
			a = core.Answer{Choices: choices}
		default:
			t.Fatal("step is neither pending nor done")
		}
		if _, err := st.Answer(context.Background(), a); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("dialog did not terminate within 100 questions")
	return core.Step{}
}

// TestStepperMatchesSessionRun drives the Stepper on Fig. 1
// and checks the refined mapping set is byte-identical to the
// callback-style Session.Run with the same designer.
func TestStepperMatchesSessionRun(t *testing.T) {
	fig := scenarios.NewFigure1(true)
	oracle := fig1Oracle()

	direct, err := core.NewSession(fig.SrcDeps, fig.Source).Run(fig.Set, oracle, nil)
	if err != nil {
		t.Fatal(err)
	}

	st := core.NewStepper(context.Background(), core.NewSession(fig.SrcDeps, fig.Source), fig.Set)
	defer st.Close()
	final := driveStepper(t, st, oracle, nil)
	if final.Err != nil {
		t.Fatal(final.Err)
	}
	if got, want := formatSet(final.Result), formatSet(direct); got != want {
		t.Fatalf("stepper result differs from Session.Run:\n--- stepper ---\n%s--- direct ---\n%s", got, want)
	}
	if !st.Done() {
		t.Fatal("stepper not Done after terminal step")
	}
}

// TestStepperChoiceQuestion drives the Fig. 4 ambiguous mapping
// through the stepper and compares against the in-process run.
func TestStepperChoiceQuestion(t *testing.T) {
	fig := scenarios.NewFigure4()
	sel := [][]int{{0}, {1}}

	direct, err := core.NewSession(fig.SrcDeps, fig.Source).
		Run(fig.Set, nil, &designer.ChoiceOracle{Selections: sel})
	if err != nil {
		t.Fatal(err)
	}

	st := core.NewStepper(context.Background(), core.NewSession(fig.SrcDeps, fig.Source), fig.Set)
	defer st.Close()

	step, err := st.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if step.Choice == nil {
		t.Fatalf("first step: want a choice question, got %+v", step)
	}
	if len(step.Choice.Choices) != 2 {
		t.Fatalf("choice question has %d or-groups, want 2", len(step.Choice.Choices))
	}
	final := driveStepper(t, st, nil, sel)
	if final.Err != nil {
		t.Fatal(final.Err)
	}
	if got, want := formatSet(final.Result), formatSet(direct); got != want {
		t.Fatalf("stepper result differs:\n%s\nvs\n%s", got, want)
	}
}

// TestStepperInvalidAnswer checks a bad answer is rejected without
// advancing or killing the dialog.
func TestStepperInvalidAnswer(t *testing.T) {
	fig := scenarios.NewFigure1(true)
	st := core.NewStepper(context.Background(), core.NewSession(fig.SrcDeps, fig.Source), fig.Set)
	defer st.Close()

	before, err := st.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if before.Grouping == nil {
		t.Fatalf("want a grouping question first, got %+v", before)
	}
	if _, err := st.Answer(context.Background(), core.Answer{Scenario: 7}); !errors.Is(err, core.ErrInvalidAnswer) {
		t.Fatalf("Answer(7) err = %v, want ErrInvalidAnswer", err)
	}
	after, err := st.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after.Seq != before.Seq || after.Grouping == nil {
		t.Fatal("invalid answer advanced the dialog")
	}
	// A valid answer still works.
	if _, err := st.Answer(context.Background(), core.Answer{Scenario: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestStepperCloseConcurrent closes a stepper while an Answer computes
// the next question on another goroutine, as Manager.Delete does: the
// answer returns, and the session ends failed.
func TestStepperCloseConcurrent(t *testing.T) {
	fig := scenarios.NewFigure1(true)
	st := core.NewStepper(context.Background(), core.NewSession(fig.SrcDeps, fig.Source), fig.Set)
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.Answer(context.Background(), core.Answer{Scenario: 1})
	}()
	st.Close()
	<-done
	if step, err := st.Step(context.Background()); err != nil || !step.Done || step.Err == nil {
		t.Fatalf("step after Close = %+v, err %v; want a terminal failure", step, err)
	}
}

// TestStepperClose checks a session closed while parked at a question
// reports a terminal error.
func TestStepperClose(t *testing.T) {
	fig := scenarios.NewFigure1(true)
	st := core.NewStepper(context.Background(), core.NewSession(fig.SrcDeps, fig.Source), fig.Set)
	if _, err := st.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	st.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !st.Done() {
		if time.Now().After(deadline) {
			t.Fatal("stepper not Done after Close")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Result().Err == nil {
		t.Fatal("closed mid-dialog session reports no terminal error")
	}
}
