package core

import (
	"context"
	"fmt"
	"slices"

	"muse/internal/mapping"
)

// GroupLess refines an already-designed grouping function by asking
// whether additional attributes should join it — splitting nested sets
// into smaller ones (Incremental Muse-G, Sec. III-C). Probing starts
// from the current arguments; attributes already implied by them are
// skipped.
func (w *GroupingWizard) GroupLess(m *mapping.Mapping, fn string, d GroupingDesigner) (*mapping.Mapping, error) {
	sk := m.SKFor(fn)
	if sk == nil {
		return nil, fmt.Errorf("core: mapping %s has no grouping function %s", m.Name, fn)
	}
	s := w.probeState(m, fn)
	s.confirmed = append([]mapping.Expr{}, sk.SK.Args...)
	for _, probe := range s.poss {
		if slices.Contains(s.confirmed, probe) {
			continue
		}
		stop, skip := s.settled(probe)
		if stop {
			break
		}
		if skip {
			continue
		}
		q, err := s.probeQuestion(context.TODO(), probe, nil)
		if err != nil {
			return nil, err
		}
		if q == nil {
			continue
		}
		ans, err := choose(d, q)
		if err != nil {
			return nil, err
		}
		s.decide(probe, ans)
	}
	s.stats.Result = s.confirmed
	w.Stats.SKs = append(w.Stats.SKs, s.stats)
	return s.designed(), nil
}

// GroupMore refines an already-designed grouping function by asking,
// for each current argument, whether it can be dropped — merging
// nested sets into bigger ones (Incremental Muse-G, Sec. III-C).
func (w *GroupingWizard) GroupMore(m *mapping.Mapping, fn string, d GroupingDesigner) (*mapping.Mapping, error) {
	sk := m.SKFor(fn)
	if sk == nil {
		return nil, fmt.Errorf("core: mapping %s has no grouping function %s", m.Name, fn)
	}
	ctx := context.TODO()
	poss := m.Poss()
	stats := SKStats{Mapping: m.Name, SK: fn, PossSize: len(poss)}
	keep := append([]mapping.Expr{}, sk.SK.Args...)

	for i := 0; i < len(keep); i++ {
		probe := keep[i]
		rest := append(append([]mapping.Expr{}, keep[:i]...), keep[i+1:]...)
		// Copies agree on the other kept arguments; the candidate
		// differs. Scenario 1 keeps the argument (two groups),
		// scenario 2 drops it (one group).
		tb, ok := w.probeSetup(m, poss, rest, nil, probe, nil)
		if !ok {
			// The remaining arguments force this one to agree: it is
			// redundant and can be dropped without asking.
			keep = append(keep[:i], keep[i+1:]...)
			i--
			continue
		}
		d1 := m.WithSK(fn, keep)
		d2 := m.WithSK(fn, rest)
		ie, real, err := w.obtainExample(ctx, tb, []mapping.Expr{probe}, &stats)
		if err != nil {
			return nil, err
		}
		s1, s2, err := w.scenarios(ctx, ie, d1, d2, &stats)
		if err != nil {
			return nil, err
		}
		q := &GroupingQuestion{
			Kind: QuestionGroupMore, Mapping: m, SK: fn, Probe: probe,
			Confirmed: rest, Source: ie, Real: real,
			Scenario1: s1, Scenario2: s2,
			Include1: append([]mapping.Expr{}, keep...), Include2: rest,
		}
		ans, err := choose(d, q)
		if err != nil {
			return nil, err
		}
		stats.Questions++
		if ans == 2 {
			keep = append(keep[:i], keep[i+1:]...)
			i--
		}
	}
	stats.Result = keep
	w.Stats.SKs = append(w.Stats.SKs, stats)
	return m.WithSK(fn, keep), nil
}
