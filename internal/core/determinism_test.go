package core

import (
	"sort"
	"testing"

	"muse/internal/mapping"
	"muse/internal/query"
	"muse/internal/scenarios"
)

// This file holds the engine-equivalence acceptance test of the shared
// index store + cost-based planner: over every scenario suite, the
// probe queries the wizards actually issue (each mapping's canonical
// tableau, with and without inequalities) must return exactly the
// matches of the naive reference evaluation (given atom order, full
// scans, check-all inequalities — the pre-planner semantics), and the
// planned evaluation must be deterministic run to run.

// scenarioQueries builds the retrieval queries of a scenario's
// mappings: the plain assignment query plus, where the mapping has
// grouping candidates, the two-copy probe query on the first one.
func scenarioQueries(t *testing.T, s *scenarios.Scenario) []*query.Query {
	t.Helper()
	set, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var qs []*query.Query
	for _, m := range set.Mappings {
		if m.Ambiguous() {
			m = m.Interpretation(make([]int, len(m.OrGroups)))
		}
		tb := newTableau(m, 1)
		tb.finalize()
		qs = append(qs, tb.realQuery(nil))
		if poss := m.Poss(); len(poss) > 0 {
			probe := poss[0]
			if ptb, ok := buildProbeTableau(m, s.Src, nil, poss[1:], []mapping.Expr{probe}); ok {
				ptb.finalize()
				qs = append(qs, ptb.realQuery([]mapping.Expr{probe}))
			}
		}
	}
	return qs
}

func canonical(ms []query.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		s := ""
		for _, t := range m.Tuples {
			s += t.Key() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func ordered(ms []query.Match) string {
	s := ""
	for _, m := range ms {
		for _, t := range m.Tuples {
			s += t.Key() + "|"
		}
		s += "\n"
	}
	return s
}

func TestPlannedEvalMatchesNaiveOnScenarios(t *testing.T) {
	for _, s := range scenarios.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			scale := 0.02
			if s.Name == "TPCH" {
				// TPCH's widest join makes the naive reference quadratic;
				// a smaller instance keeps the -race run fast.
				scale = 0.005
			}
			in := s.NewInstance(scale)
			store := query.NewIndexStore(in)
			for qi, q := range scenarioQueries(t, s) {
				naive, err := q.Eval(in, query.Options{Naive: true})
				if err != nil {
					t.Fatalf("query %d naive: %v", qi, err)
				}
				planned, err := q.Eval(in, query.Options{Store: store})
				if err != nil {
					t.Fatalf("query %d planned: %v", qi, err)
				}
				got, want := canonical(planned), canonical(naive)
				if len(got) != len(want) {
					t.Fatalf("query %d: planned %d matches, naive %d", qi, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("query %d: match sets differ at %d", qi, i)
					}
				}
				again, err := q.Eval(in, query.Options{Store: store})
				if err != nil {
					t.Fatal(err)
				}
				if ordered(again) != ordered(planned) {
					t.Fatalf("query %d: planned evaluation is nondeterministic", qi)
				}
			}
		})
	}
}

// TestSessionSharesStore checks the build-once property across a whole
// session: designing every grouping function of a scenario mapping
// twice over one wizard must not build any index the first pass did
// not already build.
func TestSessionSharesStore(t *testing.T) {
	s, err := scenarios.ByName("Mondial")
	if err != nil {
		t.Fatal(err)
	}
	set, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var m *mapping.Mapping
	for _, cand := range set.Mappings {
		if !cand.Ambiguous() && len(cand.SKs) > 0 {
			m = cand
			break
		}
	}
	if m == nil {
		t.Skip("no unambiguous mapping with grouping functions")
	}
	in := s.NewInstance(0.02)
	w := NewGroupingWizard(s.Src, in)
	d := alwaysAnswer(1)
	if _, err := w.DesignMapping(m, d); err != nil {
		t.Fatal(err)
	}
	if w.Store == nil {
		t.Fatal("wizard retrieved examples without creating a store")
	}
	first := w.Store.Metrics()
	if first.IndexesBuilt == 0 {
		t.Skip("no index-backed retrievals on this mapping")
	}
	if _, err := w.DesignMapping(m, d); err != nil {
		t.Fatal(err)
	}
	if again := w.Store.Metrics(); again.IndexesBuilt != first.IndexesBuilt {
		t.Errorf("second pass built %d extra indexes; want full reuse",
			again.IndexesBuilt-first.IndexesBuilt)
	}
}

// alwaysAnswer is a designer that picks the same scenario every time.
type alwaysAnswer int

func (a alwaysAnswer) ChooseScenario(q *GroupingQuestion) (int, error) { return int(a), nil }
