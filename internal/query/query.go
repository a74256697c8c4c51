package query

import (
	"context"
	"fmt"
	"sort"
	"time"

	"muse/internal/instance"
	"muse/internal/nr"
	"muse/internal/obs"
)

// Atom is one tuple pattern of a query: it binds tuple variable Var to
// a tuple of a set (a top-level set named by Set, or the nested set
// Parent.Field of an earlier atom's tuple), and binds each attribute
// listed in Bind to a value variable. Repeating a value variable
// across attributes expresses equality.
type Atom struct {
	Var    string
	Set    nr.Path // top-level set, when Parent is empty
	Parent string  // earlier atom's tuple variable
	Field  string  // set field of the parent's record
	Bind   map[string]string
	// Pin constrains attributes to constant values (selection).
	Pin map[string]instance.Value
}

// Query is a conjunctive query with inequalities.
type Query struct {
	Src   *nr.Catalog
	Atoms []Atom
	// Neq lists pairs of value variables required to differ.
	Neq [][2]string
}

// Match is one query answer: the matched tuple per atom (indexed as in
// Atoms) and the value of every value variable.
type Match struct {
	Tuples []*instance.Tuple
	Values map[string]instance.Value
}

// Options controls evaluation.
type Options struct {
	// Limit stops after this many matches (0 = all).
	Limit int
	// Timeout aborts evaluation after this duration (0 = none). An
	// aborted evaluation returns the matches found so far and
	// ErrTimeout.
	Timeout time.Duration
	// Ctx, when non-nil, is polled during the backtracking search; a
	// cancelled (or deadline-exceeded) context aborts the evaluation,
	// which returns the matches found so far and ctx.Err(). It
	// composes with Timeout: whichever fires first wins.
	Ctx context.Context
	// Store is a session-shared index store over the instance. When it
	// is nil (or indexes a different instance) an ephemeral store is
	// built for this evaluation, restoring the old per-Eval behavior.
	Store *IndexStore
	// Naive disables planning and indexing: atoms are evaluated in the
	// given order by scanning. It is the reference semantics the
	// planned evaluator is tested against.
	Naive bool
	// Obs, when non-nil, records planner and evaluation metrics
	// (atoms costed, tier choices, rows scanned vs. returned) and one
	// "query.eval" span per Eval. Nil costs one branch per Eval.
	Obs *obs.Obs
}

// ErrTimeout is returned when evaluation exceeds Options.Timeout.
var ErrTimeout = fmt.Errorf("query: evaluation timed out")

// Validate resolves the query against its catalog.
func (q *Query) Validate() error {
	seen := make(map[string]*nr.SetType, len(q.Atoms))
	for i, a := range q.Atoms {
		if a.Var == "" {
			return fmt.Errorf("query: atom %d has no tuple variable", i)
		}
		if _, dup := seen[a.Var]; dup {
			return fmt.Errorf("query: tuple variable %q bound twice", a.Var)
		}
		var st *nr.SetType
		switch {
		case a.Parent == "":
			st = q.Src.ByPath(a.Set)
			if st == nil {
				return fmt.Errorf("query: atom %q: no set %q", a.Var, a.Set)
			}
			if st.Parent != nil {
				return fmt.Errorf("query: atom %q: set %q is nested; bind it through a parent atom", a.Var, a.Set)
			}
		default:
			parent, ok := seen[a.Parent]
			if !ok {
				return fmt.Errorf("query: atom %q: parent %q not bound earlier", a.Var, a.Parent)
			}
			if !parent.HasSetField(a.Field) {
				return fmt.Errorf("query: atom %q: %s has no set field %q", a.Var, parent, a.Field)
			}
			st = parent.Child(a.Field)
		}
		for attr := range a.Bind {
			if !st.HasAtom(attr) {
				return fmt.Errorf("query: atom %q: %s has no atom %q", a.Var, st, attr)
			}
		}
		for attr := range a.Pin {
			if !st.HasAtom(attr) {
				return fmt.Errorf("query: atom %q: %s has no atom %q to pin", a.Var, st, attr)
			}
		}
		seen[a.Var] = st
	}
	return nil
}

// Eval evaluates the query over the instance. Atoms are internally
// reordered by the cost-based planner (estimated candidate-set size
// from the index store's statistics), which keeps the backtracking
// join index-driven; results report tuples in the original atom order.
func (q *Query) Eval(in *instance.Instance, opt Options) ([]Match, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if opt.Ctx != nil {
		// Fail fast on an already-cancelled request before planning or
		// building indexes.
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	store := opt.Store
	if store == nil || store.Instance() != in {
		store = NewIndexStore(in)
	}
	o := opt.Obs
	var evalStart time.Time
	var sp *obs.Span
	if o != nil {
		evalStart = time.Now()
		sp, _ = o.StartCtx(opt.Ctx, obs.SpanQueryEval)
	}
	p := q.plan(store, opt.Naive)
	if sp != nil && obs.DetailFromContext(opt.Ctx) {
		// Expensive diagnostics only when the trace asked for them
		// (flight-recorder captures): the rendered planner explanation.
		sp.Attr("explain", (&Plan{p: p}).Explain())
	}
	if o != nil {
		o.Counter(obs.MQueryEvals).Inc()
		o.Counter(obs.MQueryAtomsCosted).Add(int64(p.costed))
		for i := range p.plans {
			o.Counter(tierCounters[p.plans[i].tier]).Inc()
		}
	}
	// Resolve each position's index once per evaluation: candidates()
	// then probes a plain map, paying no per-probe key rendering or
	// store lock.
	for i := range p.plans {
		if len(p.plans[i].idxAttrs) > 0 {
			p.plans[i].idx = store.Index(p.plans[i].st, p.plans[i].idxAttrs)
		}
	}
	e := &evalState{
		q: p.q, plan: p, in: in, store: store,
		values: make(map[string]instance.Value),
		tuples: make([]*instance.Tuple, len(q.Atoms)),
		opt:    opt,
	}
	if opt.Timeout > 0 {
		e.deadline = time.Now().Add(opt.Timeout)
	}
	err := e.search(0)
	// Restore the caller's atom order in the reported matches.
	for mi := range e.out {
		orig := make([]*instance.Tuple, len(e.out[mi].Tuples))
		for pos, t := range e.out[mi].Tuples {
			orig[p.back[pos]] = t
		}
		e.out[mi].Tuples = orig
	}
	if o != nil {
		o.Counter(obs.MQueryRowsScanned).Add(e.scanned)
		o.Counter(obs.MQueryRowsReturned).Add(int64(len(e.out)))
		o.Histogram(obs.HQueryEvalSeconds).Observe(time.Since(evalStart).Seconds())
		sp.Attr("atoms", len(q.Atoms)).Attr("matches", len(e.out)).Attr("scanned", e.scanned).End()
	}
	return e.out, err
}

// First returns one match, or ok=false when the query is empty on the
// instance (a timeout also reports not-found, with the error).
func (q *Query) First(in *instance.Instance, timeout time.Duration) (Match, bool, error) {
	return q.FirstOpts(in, Options{Timeout: timeout})
}

// FirstOpts is First with the full option set (shared store, context,
// observability); opt.Limit is forced to 1.
func (q *Query) FirstOpts(in *instance.Instance, opt Options) (Match, bool, error) {
	opt.Limit = 1
	ms, err := q.Eval(in, opt)
	if len(ms) > 0 {
		return ms[0], true, nil
	}
	return Match{}, false, err
}

// maxIndexAttrs caps composite-index width: beyond a few attributes
// the extra selectivity is marginal and every distinct attribute set
// costs one index build.
const maxIndexAttrs = 4

// atomPlan is the per-position access plan the planner attaches to an
// ordered atom.
type atomPlan struct {
	// st is the atom's set type.
	st *nr.SetType
	// parentPos is the position of the parent atom (-1 for root atoms).
	parentPos int
	// idxAttrs is the canonically-ordered attribute list of the index
	// to probe; empty means scan.
	idxAttrs []string
	// idx is the resolved index for idxAttrs, fetched from the store
	// once per evaluation.
	idx map[string][]*instance.Tuple
	// neq lists the inequality pairs that become fully bound at this
	// position (pushed down to the earliest such atom).
	neq [][2]string
	// checkAllNeq re-checks every bound pair on every bind (naive
	// reference mode).
	checkAllNeq bool
	// tier is the chosen access tier (tier* constants) and cost the
	// planner's candidate-set estimate at placement time; both feed
	// Plan.Explain and the muse_plan_tier_* counters.
	tier int8
	cost float64
}

// Access-tier labels, in preference order (Explain and the
// muse_plan_tier_* counters index by them).
const (
	tierPinnedComposite = iota
	tierBoundComposite
	tierBoundSingle
	tierScan
	tierNested
	tierNaive
)

var tierNames = [...]string{
	tierPinnedComposite: "pinned-composite",
	tierBoundComposite:  "bound-composite",
	tierBoundSingle:     "bound-single",
	tierScan:            "scan",
	tierNested:          "nested",
	tierNaive:           "naive-scan",
}

var tierCounters = [...]string{
	tierPinnedComposite: obs.MPlanTierPinnedComposite,
	tierBoundComposite:  obs.MPlanTierBoundComposite,
	tierBoundSingle:     obs.MPlanTierBoundSingle,
	tierScan:            obs.MPlanTierScan,
	tierNested:          obs.MPlanTierNested,
	tierNaive:           obs.MPlanTierNaive,
}

// planned is the output of the planner: the reordered query, the
// original-position map, the per-position access plans, and the
// planning effort (atoms costed) for the metrics.
type planned struct {
	q      *Query
	back   []int
	plans  []atomPlan
	costed int
}

// resolveTypes maps each atom (in original order) to its set type.
// Validate has succeeded, so parents precede children.
func (q *Query) resolveTypes() []*nr.SetType {
	byVar := make(map[string]*nr.SetType, len(q.Atoms))
	types := make([]*nr.SetType, len(q.Atoms))
	for i, a := range q.Atoms {
		var st *nr.SetType
		if a.Parent == "" {
			st = q.Src.ByPath(a.Set)
		} else {
			st = byVar[a.Parent].Child(a.Field)
		}
		byVar[a.Var] = st
		types[i] = st
	}
	return types
}

// plan orders the atoms by estimated candidate-set size and attaches
// per-position access plans. An atom is ready once its parent (if any)
// is placed; among ready atoms the cheapest is placed next, costed as:
//
//   - nested atom: the average occurrence size of its set type (the
//     parent's SetRef pins the occurrence);
//   - indexed atom: cardinality scaled by the selectivity (1/distinct)
//     of every pinned or already-bound attribute, probed through a
//     composite index when ≥2 attributes are usable;
//   - otherwise: a full scan at the set's cardinality.
//
// Cost ties break by access tier (pinned composite < bound composite <
// bound single < scan) and then by original atom position, so the plan
// is fully deterministic — no map-iteration order is consulted.
func (q *Query) plan(store *IndexStore, naive bool) planned {
	n := len(q.Atoms)
	types := q.resolveTypes()
	if naive {
		p := planned{q: q, back: make([]int, n), plans: make([]atomPlan, n)}
		pos := make(map[string]int, n)
		for i := range q.Atoms {
			p.back[i] = i
			pos[q.Atoms[i].Var] = i
			pp := -1
			if q.Atoms[i].Parent != "" {
				pp = pos[q.Atoms[i].Parent]
			}
			p.plans[i] = atomPlan{st: types[i], parentPos: pp, checkAllNeq: true, tier: tierNaive}
		}
		return p
	}

	placed := make([]bool, n)
	boundVars := make(map[string]bool)
	placedPos := make(map[string]int)
	order := make([]int, 0, n)
	plans := make([]atomPlan, 0, n)
	costed := 0
	for len(order) < n {
		best, bestTier := -1, 0
		var bestCost float64
		var bestAttrs []string
		for i := 0; i < n; i++ {
			a := q.Atoms[i]
			if placed[i] || (a.Parent != "" && !has(placedPos, a.Parent)) {
				continue
			}
			cost, tier, attrs := atomCost(a, types[i], boundVars, store)
			costed++
			if best < 0 || cost < bestCost || (cost == bestCost && tier < bestTier) {
				best, bestCost, bestTier, bestAttrs = i, cost, tier, attrs
			}
		}
		a := q.Atoms[best]
		placed[best] = true
		pos := len(order)
		placedPos[a.Var] = pos
		for _, attr := range types[best].Atoms {
			if vvar, ok := a.Bind[attr]; ok {
				boundVars[vvar] = true
			}
		}
		pp := -1
		if a.Parent != "" {
			pp = placedPos[a.Parent]
		}
		plans = append(plans, atomPlan{
			st: types[best], parentPos: pp, idxAttrs: bestAttrs,
			tier: tierLabel(a, bestTier, bestAttrs), cost: bestCost,
		})
		order = append(order, best)
	}

	atoms := make([]Atom, n)
	back := make([]int, n)
	for pos, idx := range order {
		atoms[pos] = q.Atoms[idx]
		back[pos] = idx
	}
	ordered := &Query{Src: q.Src, Atoms: atoms, Neq: q.Neq}
	pushDownNeq(ordered, plans)
	return planned{q: ordered, back: back, plans: plans, costed: costed}
}

// tierLabel maps an atom's cost tier (atomCost's ordering value) to
// the access-tier label recorded on its plan.
func tierLabel(a Atom, costTier int, attrs []string) int8 {
	switch {
	case a.Parent != "":
		return tierNested
	case len(attrs) == 0:
		return tierScan
	case costTier == 0:
		return tierPinnedComposite
	case costTier == 1:
		return tierBoundComposite
	default:
		return tierBoundSingle
	}
}

func has(m map[string]int, k string) bool { _, ok := m[k]; return ok }

// atomCost estimates the candidate-set size of evaluating atom a next,
// given the value variables bound so far, and returns the access tier
// and the (canonically ordered) index attributes to probe.
func atomCost(a Atom, st *nr.SetType, boundVars map[string]bool, store *IndexStore) (float64, int, []string) {
	if a.Parent != "" {
		return store.Stats(st).AvgOccSize(), 1, nil
	}
	stats := store.Stats(st)
	// Usable attributes in schema order (deterministic): pins first
	// preference is expressed through the tier, not the scan order.
	type keyed struct {
		attr     string
		distinct int
		pinned   bool
	}
	var usable []keyed
	pins := 0
	for _, attr := range st.Atoms {
		if _, ok := a.Pin[attr]; ok {
			usable = append(usable, keyed{attr, stats.Distinct[attr], true})
			pins++
			continue
		}
		if vvar, ok := a.Bind[attr]; ok && boundVars[vvar] {
			usable = append(usable, keyed{attr, stats.Distinct[attr], false})
		}
	}
	if len(usable) == 0 {
		return float64(stats.Card), 3, nil
	}
	// Keep the most selective attributes (highest distinct count),
	// capped at maxIndexAttrs; ties keep schema order (stable sort).
	if len(usable) > maxIndexAttrs {
		for i := 1; i < len(usable); i++ {
			for j := i; j > 0 && usable[j].distinct > usable[j-1].distinct; j-- {
				usable[j], usable[j-1] = usable[j-1], usable[j]
			}
		}
		usable = usable[:maxIndexAttrs]
	}
	cost := float64(stats.Card)
	attrs := make([]string, 0, len(usable))
	for _, u := range usable {
		attrs = append(attrs, u.attr)
		if u.distinct > 0 {
			cost /= float64(u.distinct)
		} else {
			cost = 0 // every value of this attr is unset: nothing can match
		}
	}
	tier := 2
	if len(attrs) >= 2 {
		if pins > 0 {
			tier = 0
		} else {
			tier = 1
		}
	}
	// attrs is freshly built above; sort it in place into the canonical
	// index-attribute order.
	sort.Strings(attrs)
	return cost, tier, attrs
}

// pushDownNeq attaches each inequality pair to the earliest position
// at which both sides are bound; pairs with a side that never binds
// are dropped (they were never checked before either).
func pushDownNeq(q *Query, plans []atomPlan) {
	firstBound := make(map[string]int)
	for pos, a := range q.Atoms {
		for _, vvar := range a.Bind {
			if _, ok := firstBound[vvar]; !ok {
				firstBound[vvar] = pos
			}
		}
	}
	for _, ne := range q.Neq {
		l, lok := firstBound[ne[0]]
		r, rok := firstBound[ne[1]]
		if !lok || !rok {
			continue
		}
		pos := l
		if r > pos {
			pos = r
		}
		plans[pos].neq = append(plans[pos].neq, ne)
	}
}

type evalState struct {
	q        *Query
	plan     planned
	in       *instance.Instance
	store    *IndexStore
	values   map[string]instance.Value
	tuples   []*instance.Tuple
	out      []Match
	opt      Options
	deadline time.Time
	steps    int
	keyBuf   []byte
	// scanned counts candidate tuples considered across the whole
	// search (feeds muse_query_rows_scanned_total).
	scanned int64
	// boundStack records value variables in binding order; unbindTo
	// truncates it to a mark, so backtracking allocates nothing.
	boundStack []string
}

// aborted reports (gated to every 256 steps) whether the search must
// stop: the deadline passed (ErrTimeout), or the caller's context was
// cancelled (ctx.Err()).
func (e *evalState) aborted() error {
	e.steps++
	if e.steps%256 != 0 {
		return nil
	}
	if !e.deadline.IsZero() && time.Now().After(e.deadline) {
		return ErrTimeout
	}
	if e.opt.Ctx != nil {
		if err := e.opt.Ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (e *evalState) search(i int) error {
	if err := e.aborted(); err != nil {
		return err
	}
	if i >= len(e.q.Atoms) {
		// All atoms matched: inequalities were checked incrementally.
		m := Match{Tuples: append([]*instance.Tuple{}, e.tuples...), Values: make(map[string]instance.Value, len(e.values))}
		for k, v := range e.values {
			m.Values[k] = v
		}
		e.out = append(e.out, m)
		return nil
	}
	a := e.q.Atoms[i]
	cands := e.candidates(i)
	e.scanned += int64(len(cands))
	for _, t := range cands {
		mark := len(e.boundStack)
		if e.bindTuple(i, a, t) {
			e.tuples[i] = t
			if err := e.search(i + 1); err != nil {
				e.unbindTo(mark)
				return err
			}
			if e.opt.Limit > 0 && len(e.out) >= e.opt.Limit {
				e.unbindTo(mark)
				return nil
			}
			e.tuples[i] = nil
		}
		e.unbindTo(mark)
	}
	return nil
}

// candidates narrows the tuple pool for atom i following its plan:
// nested atoms read the occurrence their parent references, indexed
// atoms probe the store's (possibly composite) hash index with a key
// composed in a reused buffer, and the rest scan. The returned slice
// is shared and read-only.
func (e *evalState) candidates(i int) []*instance.Tuple {
	a := e.q.Atoms[i]
	p := &e.plan.plans[i]
	if a.Parent != "" {
		parent := e.tuples[p.parentPos]
		if parent == nil {
			return nil
		}
		ref, _ := parent.Get(a.Field).(*instance.SetRef)
		if ref == nil {
			return nil
		}
		occ := e.in.Set(ref)
		if occ == nil {
			return nil
		}
		return occ.View()
	}
	if len(p.idxAttrs) == 0 {
		return e.in.Top(p.st).View()
	}
	buf := e.keyBuf[:0]
	for _, attr := range p.idxAttrs {
		v, ok := a.Pin[attr]
		if !ok {
			v = e.values[a.Bind[attr]]
		}
		buf = instance.AppendValueKey(buf, v)
		buf = append(buf, '\x05')
	}
	e.keyBuf = buf
	return p.idx[string(buf)]
}

// bindTuple binds the atom's value variables against tuple t, pushing
// newly bound variable names onto boundStack, and reports whether the
// binding (including the inequalities pushed down to this position) is
// consistent. On failure the stack is already unwound to its state at
// entry; on success the caller unwinds to its own mark when
// backtracking.
func (e *evalState) bindTuple(i int, a Atom, t *instance.Tuple) bool {
	mark := len(e.boundStack)
	for attr, want := range a.Pin {
		if !instance.SameValue(t.Get(attr), want) {
			return false
		}
	}
	for attr, vvar := range a.Bind {
		v := t.Get(attr)
		if v == nil {
			e.unbindTo(mark)
			return false
		}
		if prev, ok := e.values[vvar]; ok {
			if !instance.SameValue(prev, v) {
				e.unbindTo(mark)
				return false
			}
			continue
		}
		e.values[vvar] = v
		e.boundStack = append(e.boundStack, vvar)
	}
	p := &e.plan.plans[i]
	if p.checkAllNeq {
		// Reference mode: check every pair that happens to be bound.
		for _, ne := range e.q.Neq {
			l, lok := e.values[ne[0]]
			r, rok := e.values[ne[1]]
			if lok && rok && instance.SameValue(l, r) {
				e.unbindTo(mark)
				return false
			}
		}
		return true
	}
	for _, ne := range p.neq {
		if instance.SameValue(e.values[ne[0]], e.values[ne[1]]) {
			e.unbindTo(mark)
			return false
		}
	}
	return true
}

func (e *evalState) unbindTo(mark int) {
	for i := len(e.boundStack) - 1; i >= mark; i-- {
		delete(e.values, e.boundStack[i])
	}
	e.boundStack = e.boundStack[:mark]
}
