package core

import (
	"context"
	"fmt"

	"muse/internal/mapping"
)

// dialog is the explicit state of a wizard dialog (Sec. V): Muse-D
// over the mappings still ambiguous, then Muse-G over every grouping
// function of the unambiguous ones. advance computes the next question
// on the caller's goroutine and answer submits a reply to it; nothing
// runs in between, so a parked dialog is plain data. Every entry point
// drives this one state: the callback loops (Session.Run,
// DesignMapping, DesignSK, Disambiguate, DisambiguateAll) through run,
// and the Stepper one call at a time.
type dialog struct {
	gw *GroupingWizard // nil: Muse-D only
	dw *DisambiguationWizard
	// set is the input mapping set; when non-nil, the finished dialog
	// builds the refined set over its schemas.
	set *mapping.Set

	amb  []*mapping.Mapping // mappings still to disambiguate
	todo []*mapping.Mapping // unambiguous mappings still to design
	cur  *mapping.Mapping   // the mapping under design
	fns  []string           // cur's grouping functions still to design
	sk   *skDesign          // the grouping function under design
	out  []*mapping.Mapping // finished mappings, in order

	// step holds the pending question, or the terminal state (Seq is
	// the Stepper's to fill in).
	step Step
	// spec, when non-nil, bounds the retrievals prefetched for the
	// designer's think time, which outlive the call that starts them.
	spec context.Context
}

// advance runs the wizards up to the next question or the end of the
// dialog. ctx bounds the work: once it is cancelled, retrieval and
// chases abort and the dialog fails with ctx's error.
func (d *dialog) advance(ctx context.Context) error {
	for d.step == (Step{}) { // no question pending, not finished
		err := ctx.Err()
		if err != nil {
			return d.stop(err)
		}
		switch {
		case d.sk != nil:
			if d.step.Grouping, err = d.sk.next(ctx); err == nil && d.step.Grouping == nil {
				d.cur, d.sk = d.sk.designed(), nil
			}
		case len(d.amb) > 0 && d.amb[0].Ambiguous():
			d.step.Choice, err = d.dw.question(ctx, d.amb[0])
		case len(d.amb) > 0:
			d.todo, d.amb = append(d.todo, d.amb[0].Clone()), d.amb[1:]
		case len(d.fns) > 0:
			d.sk, err = d.gw.newSKDesign(d.spec, d.cur, d.fns[0])
			d.fns = d.fns[1:]
		case d.cur != nil:
			d.out, d.cur = append(d.out, d.cur), nil
		case len(d.todo) > 0:
			d.cur, d.todo = d.todo[0], d.todo[1:]
			if d.gw != nil {
				d.fns = d.gw.skOrder(d.cur)
			}
		default:
			if d.set != nil {
				d.step.Result, err = mapping.NewSet(d.set.Src, d.set.Tgt, d.out...)
			}
			d.step.Done = true
		}
		if err != nil {
			return d.stop(err)
		}
	}
	return nil
}

// validate checks a against the pending question: a grouping question
// wants scenario 1 or 2, a choice question at least one in-range
// selection per or-group.
func (d *dialog) validate(a Answer) error {
	switch q := d.step.Choice; {
	case d.step.Grouping != nil:
		return checkScenario(a.Scenario)
	case q != nil:
		if len(a.Choices) != len(q.Choices) {
			return fmt.Errorf("core: choice question wants %d selections, got %d: %w", len(q.Choices), len(a.Choices), ErrInvalidAnswer)
		}
		for gi, sel := range a.Choices {
			if len(sel) == 0 {
				return fmt.Errorf("core: or-group %d needs at least one selection: %w", gi, ErrInvalidAnswer)
			}
			for _, idx := range sel {
				if idx < 0 || idx >= len(q.Choices[gi].Values) {
					return fmt.Errorf("core: or-group %d selection %d out of range [0,%d): %w", gi, idx, len(q.Choices[gi].Values), ErrInvalidAnswer)
				}
			}
		}
		return nil
	}
	return fmt.Errorf("core: session already finished: %w", ErrInvalidAnswer)
}

func checkScenario(ans int) error {
	if ans != 1 && ans != 2 {
		return fmt.Errorf("core: grouping question wants scenario 1 or 2, got %d: %w", ans, ErrInvalidAnswer)
	}
	return nil
}

// answer applies a, already validated, to the pending question and
// advances to the next one.
func (d *dialog) answer(ctx context.Context, a Answer) error {
	if q := d.step.Choice; q != nil {
		ms, err := d.dw.interpret(q, a.Choices)
		if err != nil {
			return d.stop(err)
		}
		d.todo, d.amb = append(d.todo, ms...), d.amb[1:]
	} else {
		d.sk.answer(a.Scenario)
	}
	d.step = Step{}
	return d.advance(ctx)
}

// stop ends the dialog with err and returns it.
func (d *dialog) stop(err error) error {
	if d.sk != nil {
		d.sk.end()
	}
	d.step = Step{Done: true, Err: err}
	return err
}

// run drives the dialog to its end on the caller's goroutine, putting
// each question to the callback designers.
func (d *dialog) run(gd GroupingDesigner, dd DisambiguationDesigner) error {
	ctx := context.TODO()
	err := d.advance(ctx)
	for err == nil && !d.step.Done {
		var a Answer
		if q := d.step.Grouping; q != nil {
			a.Scenario, err = gd.ChooseScenario(q)
		} else {
			a.Choices, err = dd.SelectValues(d.step.Choice)
		}
		if err == nil {
			err = d.validate(a)
		}
		if err == nil {
			err = d.answer(ctx, a)
		}
	}
	if err != nil {
		d.stop(err)
	}
	return err
}
