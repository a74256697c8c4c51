package core

import (
	"context"
	"fmt"
	"sync"

	"muse/internal/mapping"
	"muse/internal/obs"
)

// ErrInvalidAnswer marks an answer that does not fit the pending
// question (wrong kind, scenario outside {1,2}, or choice indexes out
// of range). Submitting an invalid answer does NOT advance or kill the
// session; the same question stays pending. The HTTP server maps this
// to 422 invalid_answer.
var ErrInvalidAnswer = fmt.Errorf("core: answer does not fit the pending question")

// Answer is one designer reply submitted to a Stepper.
type Answer struct {
	// Scenario answers a grouping question: 1 selects Scenario1, 2
	// selects Scenario2.
	Scenario int
	// Choices answers a disambiguation question: per or-group, the
	// 0-based indexes of the selected alternatives (at least one each;
	// several select multiple interpretations).
	Choices [][]int
}

// Step is the externally visible state of a Stepper: exactly one of a
// pending grouping question, a pending choice question, or the
// terminal state (Done with Result or Err).
type Step struct {
	// Seq numbers the questions of the session starting at 1; terminal
	// steps carry the count of questions answered.
	Seq int
	// Grouping is the pending Muse-G question, if any.
	Grouping *GroupingQuestion
	// Choice is the pending Muse-D question, if any.
	Choice *ChoiceQuestion
	// Done reports the dialog has ended; Result or Err says how.
	Done bool
	// Result is the refined, unambiguous mapping set (terminal success).
	Result *mapping.Set
	// Err is the terminal failure, when the dialog aborted (request
	// context cancelled, invalid example, stepper closed).
	Err error
}

// Stepper serves a wizard dialog one question at a time — the shape an
// HTTP handler needs to host one session across many requests
// (Sec. III/IV dialogs over the wire). It holds the dialog state
// Session.Run loops over: NewStepper and Answer compute the next
// question within the call, and Step returns the pending one without
// blocking. Between calls nothing runs, so a parked session costs only
// its state.
//
// A Stepper is NOT safe for concurrent use: callers serialize its
// methods (the server's SessionManager holds a per-session mutex),
// except Close, which may be called concurrently with the others and
// is idempotent.
//
// Cancellation semantics: the context passed to Answer (or NewStepper,
// for the work leading to the first question) bounds the wizard work
// that computing the next question requires — example retrieval and
// the two scenario chases. Once that context is cancelled, in-flight
// work aborts promptly and the session transitions to the terminal
// failed state: the dialog cannot be resumed mid-question, and
// replaying it is cheap by design (the paper's point is that dialogs
// are short).
type Stepper struct {
	d   *dialog
	seq int

	// accepted logs every answer the dialog has accepted, in order.
	// Replaying this prefix over a fresh copy of the scenario rebuilds
	// the exact dialog state (ResumeStepper): the wizards are
	// deterministic in (scenario, answers), which internal/crosscheck's
	// wizard oracle proves byte-for-byte.
	accepted []Answer
	// stopSpec cancels the dialog's spec context, so prefetched
	// retrievals, which outlive the call that starts them, end at Close.
	stopSpec context.CancelFunc
	// mu guards the cancel function of the latest call, which Close
	// invokes concurrently with the other methods.
	mu     sync.Mutex
	cancel context.CancelFunc
}

// NewStepper starts the full design pipeline (Muse-D then Muse-G, as
// Session.Run) over the mapping set and computes its first question
// under ctx.
func NewStepper(ctx context.Context, s *Session, set *mapping.Set) *Stepper {
	st := &Stepper{d: s.dialog(set)}
	st.d.spec, st.stopSpec = context.WithCancel(context.Background())
	st.work(ctx, nil)
	return st
}

// work does one call's wizard work — toward the first question when a
// is nil, else applying a and advancing — under a core.step span
// parented into ctx's trace and a context Close cancels.
func (st *Stepper) work(ctx context.Context, a *Answer) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp, ctx := st.d.gw.Obs.StartCtx(ctx, obs.SpanCoreStep)
	ctx, cancel := context.WithCancel(ctx)
	st.mu.Lock()
	st.cancel = cancel
	if st.closed() {
		cancel()
	}
	st.mu.Unlock()
	if a == nil {
		st.d.advance(ctx)
	} else {
		st.d.answer(ctx, *a)
	}
	cancel()
	if !st.d.step.Done {
		st.seq++
	}
	sp.Attr("seq", st.seq).End()
}

// Step returns the current step: the pending question, or the terminal
// state. It never blocks and never fails; the work toward each
// question is done by the call that made it due.
func (st *Stepper) Step(context.Context) (Step, error) {
	return st.current(), nil
}

func (st *Stepper) current() Step {
	if st.closed() && !st.d.step.Done {
		st.d.stop(context.Canceled)
	}
	step := st.d.step
	step.Seq = st.seq
	return step
}

// Answer validates a against the pending question, applies it, and
// returns the next step. The wizard work computing the next question
// runs under ctx: cancelling it aborts the work, leaves the session
// terminally failed, and returns ctx's error, as Answer on a stepper
// Close cut short returns context.Canceled. An ErrInvalidAnswer leaves
// the pending question untouched.
func (st *Stepper) Answer(ctx context.Context, a Answer) (Step, error) {
	if step := st.current(); step.Err != nil && st.closed() {
		return Step{}, step.Err
	}
	if err := st.d.validate(a); err != nil {
		return Step{}, err
	}
	// Log the answer before the work toward the next question, so a
	// dialog that dies computing that question (request context
	// cancelled) still has the complete accepted prefix for replay.
	st.accepted = append(st.accepted, cloneAnswer(a))
	st.work(ctx, &a)
	if ctx != nil && ctx.Err() != nil {
		return Step{}, ctx.Err()
	}
	return st.current(), nil
}

// cloneAnswer deep-copies an answer so the log is immune to callers
// reusing choice slices.
func cloneAnswer(a Answer) Answer {
	if a.Choices == nil {
		return a
	}
	cs := make([][]int, len(a.Choices))
	for i, sel := range a.Choices {
		cs[i] = append([]int(nil), sel...)
	}
	return Answer{Scenario: a.Scenario, Choices: cs}
}

// Accepted reports how many answers the dialog has accepted so far.
// Like Step/Answer it must be called with the stepper serialized.
func (st *Stepper) Accepted() int { return len(st.accepted) }

// Snapshot returns the ordered accepted answers — everything needed
// (with the scenario) to rebuild the dialog on any replica via
// ResumeStepper. The slice and its choice lists are fresh copies.
func (st *Stepper) Snapshot() []Answer {
	out := make([]Answer, len(st.accepted))
	for i, a := range st.accepted {
		out[i] = cloneAnswer(a)
	}
	return out
}

// ResumeStepper rebuilds a dialog from an accepted-answer snapshot by
// replaying it through the ordinary step path over a fresh session:
// the wizards are deterministic in (scenario, answers), so the resumed
// stepper's pending question, remaining dialog, and final mapping set
// are byte-identical to the uninterrupted run's. A snapshot that does
// not fit the dialog (answers past the end, or an answer the pending
// question rejects) closes the stepper and reports an error — the
// snapshot belongs to some other scenario state and cannot be trusted.
// ctx bounds the whole replay plus the work toward the next pending
// question; replay cost is one uninterrupted dialog's (the paper's
// dialogs are short by design).
func ResumeStepper(ctx context.Context, s *Session, set *mapping.Set, answers []Answer) (*Stepper, error) {
	st := NewStepper(ctx, s, set)
	for i, a := range answers {
		if step := st.current(); step.Done {
			st.Close()
			return nil, fmt.Errorf("core: resume: dialog ended after %d of %d recorded answers (err=%v)", i, len(answers), step.Err)
		}
		if _, err := st.Answer(ctx, a); err != nil {
			st.Close()
			return nil, fmt.Errorf("core: resume: replaying answer %d of %d: %w", i+1, len(answers), err)
		}
	}
	return st, nil
}

// Done reports whether the dialog has reached its terminal state.
func (st *Stepper) Done() bool { return st.current().Done }

// Result returns the terminal state (zero Step when still running).
func (st *Stepper) Result() Step {
	if step := st.current(); step.Done {
		return step
	}
	return Step{}
}

// closed reports whether Close has been called.
func (st *Stepper) closed() bool { return st.d.spec.Err() != nil }

// Close ends the session: work in flight in a concurrent call aborts
// through that call's context, prefetched retrievals abort too, and the
// dialog reports a terminal context.Canceled failure. Idempotent and
// safe to call at any time, including concurrently with Step/Answer.
func (st *Stepper) Close() {
	st.stopSpec()
	st.mu.Lock()
	if st.cancel != nil {
		st.cancel()
	}
	st.mu.Unlock()
}
