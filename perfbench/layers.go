package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"muse/internal/core"
	"muse/internal/obs"
	"muse/internal/rank"
	"muse/internal/server"
)

// unitOf names one reported metric, its unit and, for layer metrics,
// the end-to-end metric it should move.
type unitOf struct{ name, unit, moves string }

var e2eUnits = []unitOf{
	{name: "op_p50_ms", unit: "ms"},
	{name: "op_tail_ms", unit: "ms"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "resume_p50_ms", unit: "ms"},
	{name: "success_ratio", unit: "ratio"},
	{name: "alloc_kb_per_op", unit: "KiB"},
	{name: "peak_heap_mb", unit: "MiB"},
	{name: "setup_s", unit: "s"},
}

// exchangeScenarios are the Sec. VI sources the exchange workload
// chases, in their canonical order.
var exchangeScenarios = []string{"Mondial", "DBLP", "TPCH", "Amalgam"}

var layerUnits = func() []unitOf {
	us := []unitOf{
		{"server.self_ms_p50", "ms", "op_p50_ms"},
		{"server.resp_kb_per_step", "KiB", "alloc_kb_per_op"},
		{"server.refused", "count", "success_ratio"},
		{"server.evictions", "count", "peak_heap_mb"},
		{"server.live_sessions", "count", "peak_heap_mb"},
		{"server.resumes", "count", "resume_p50_ms"},
		{"core.step_self_ms_p50", "ms", "op_p50_ms"},
		{"core.questions_per_dialog", "count", "ops_per_s"},
		{"core.museg_questions_per_dialog", "count", "ops_per_s"},
		{"core.mused_questions_per_dialog", "count", "ops_per_s"},
		{"core.real_example_ratio", "ratio", "op_p50_ms"},
		{"core.parked_goroutines_per_session", "count", "peak_heap_mb"},
		{"core.parked_heap_kb_per_session", "KiB", "peak_heap_mb"},
		{"core.replay_ms_per_answer", "ms", "resume_p50_ms"},
		{"query.eval_ms_p50", "ms", "op_p50_ms"},
		{"query.eval_ms_max", "ms", "op_tail_ms"},
		{"query.eval_share", "ratio", "ops_per_s"},
		{"query.rows_scanned_per_eval", "count", "op_p50_ms"},
		{"query.returned_per_scanned", "ratio", "op_p50_ms"},
		{"query.index_hit_ratio", "ratio", "setup_s"},
		{"query.index_build_ms", "ms", "setup_s"},
		{"query.deadline_hits", "count", "success_ratio"},
		{"chase.self_ms_p50", "ms", "op_p50_ms"},
		{"chase.calls_per_step", "count", "op_p50_ms"},
		{"chase.tuples_per_call", "count", "op_p50_ms"},
	}
	for _, s := range exchangeScenarios {
		us = append(us, unitOf{"chase." + s + "_ms", "ms", "ops_per_s"})
	}
	for _, s := range exchangeScenarios {
		us = append(us, unitOf{"chase." + s + "_alloc_kb", "KiB", "alloc_kb_per_op"})
	}
	return append(us,
		unitOf{"chase.workers", "count", "ops_per_s"},
		unitOf{"instance.target_kb", "KiB", "peak_heap_mb"},
		unitOf{"rank.score_us_p50", "us", "op_p50_ms"},
		unitOf{"rank.decisive_ratio", "ratio", "op_p50_ms"},
		unitOf{"walstore.append_us_p50", "us", "op_p50_ms"},
		unitOf{"walstore.append_us_tail", "us", "op_tail_ms"},
		unitOf{"walstore.bytes_per_append", "B", "op_p50_ms"},
		unitOf{"walstore.fsyncs_per_answer", "count", "op_p50_ms"},
		unitOf{"walstore.load_ms_p50", "ms", "resume_p50_ms"},
		unitOf{"unattributed_ms_p50", "ms", "op_p50_ms"},
		unitOf{"obs.trace_overhead_pct", "%", "op_p50_ms"},
	)
}()

// zeroLayers presets every layer metric to 0, the value a workload
// reports for a layer it does not exercise (ranking off, no store, no
// per-scenario chase calls).
func zeroLayers(rep *report) {
	for _, u := range layerUnits {
		if u.name != "obs.trace_overhead_pct" {
			rep.layers[u.name] = 0
		}
	}
}

// spanSink collects every finished span of a traced phase in memory;
// the tracer serializes its writes.
type spanSink struct{ buf bytes.Buffer }

func (s *spanSink) Write(p []byte) (int, error) { return s.buf.Write(p) }

// attachSink starts collecting o's spans.
func attachSink(o *obs.Obs) *spanSink {
	s := &spanSink{}
	o.Tr.SetSink(s)
	return s
}

// dump writes the spans to dir and decodes them.
func (s *spanSink) dump(dir, name string) ([]obs.SpanRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, name), s.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var out []obs.SpanRecord
	sc := bufio.NewScanner(bytes.NewReader(s.buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var r obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("decoding span: %w", err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// storeCall is one timed SessionStore call.
type storeCall struct {
	op         string
	token      string
	start, end time.Time
	answers    int // answers a Load returned
}

// timedStore wraps a SessionStore and times every call from outside.
type timedStore struct {
	inner server.SessionStore
	mu    sync.Mutex
	calls []storeCall
}

func (t *timedStore) note(op, token string, t0 time.Time, answers int) {
	end := time.Now()
	t.mu.Lock()
	t.calls = append(t.calls, storeCall{op, token, t0, end, answers})
	t.mu.Unlock()
}

func (t *timedStore) Create(token, scenario string) error {
	t0 := time.Now()
	err := t.inner.Create(token, scenario)
	t.note("create", token, t0, 0)
	return err
}

func (t *timedStore) Append(token, scenario string, seq int, a core.Answer) error {
	t0 := time.Now()
	err := t.inner.Append(token, scenario, seq, a)
	t.note("append", token, t0, 0)
	return err
}

func (t *timedStore) Load(token string) (server.StoredSession, bool, error) {
	t0 := time.Now()
	ss, ok, err := t.inner.Load(token)
	t.note("load", token, t0, len(ss.Answers))
	return ss, ok, err
}

func (t *timedStore) Complete(token string) error {
	t0 := time.Now()
	err := t.inner.Complete(token)
	t.note("complete", token, t0, 0)
	return err
}

func (t *timedStore) Delete(token string) (bool, error) {
	t0 := time.Now()
	ok, err := t.inner.Delete(token)
	t.note("delete", token, t0, 0)
	return ok, err
}

func (t *timedStore) Tokens() ([]string, error) { return t.inner.Tokens() }
func (t *timedStore) Close() error              { return t.inner.Close() }

// rankTimer times rank.Scorer's public calls on each posed question's
// inputs. The nil timer does nothing.
type rankTimer struct {
	sc *rank.Scorer
	mu sync.Mutex
	us []float64
}

func (t *rankTimer) add(t0 time.Time) {
	d := float64(time.Since(t0)) / 1e3
	t.mu.Lock()
	t.us = append(t.us, d)
	t.mu.Unlock()
}

// grouping scores a probe question. Multi-key questions are not timed:
// their non-key attribute list is not part of the question.
func (t *rankTimer) grouping(q *core.GroupingQuestion) {
	if t == nil || q.Kind != core.QuestionProbe {
		return
	}
	t0 := time.Now()
	t.sc.ScoreProbe(q.Mapping, q.Probe, q.Confirmed)
	t.add(t0)
}

func (t *rankTimer) choice(q *core.ChoiceQuestion) {
	if t == nil {
		return
	}
	t0 := time.Now()
	t.sc.ScoreChoices(q.Mapping)
	t.add(t0)
}

// interval arithmetic for self times.
type span struct{ a, b time.Time }

// union returns the total length covered by the intervals, clipped to
// [lo, hi].
func union(iv []span, lo, hi time.Time) time.Duration {
	var cl []span
	for _, s := range iv {
		if s.a.Before(lo) {
			s.a = lo
		}
		if s.b.After(hi) {
			s.b = hi
		}
		if s.b.After(s.a) {
			cl = append(cl, s)
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i].a.Before(cl[j].a) })
	var total time.Duration
	var cur span
	for i, s := range cl {
		if i == 0 || s.a.After(cur.b) {
			total += cur.b.Sub(cur.a)
			cur = s
			continue
		}
		if s.b.After(cur.b) {
			cur.b = s.b
		}
	}
	return total + cur.b.Sub(cur.a)
}

func spanOf(r obs.SpanRecord) span { return span{r.Start, r.Start.Add(r.Dur)} }

func attrNum(r obs.SpanRecord, key string) float64 {
	for _, a := range r.Attrs {
		if a.Key == key {
			if f, ok := a.Val.(float64); ok {
				return f
			}
		}
	}
	return 0
}

func attrStr(r obs.SpanRecord, key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			s, _ := a.Val.(string)
			return s
		}
	}
	return ""
}

// layer classifies a span name into the layer that does its work.
func layer(name string) string {
	switch name {
	case obs.SpanCoreStep, obs.SpanMuseGProbe, obs.SpanMuseD:
		return "core"
	case obs.SpanChase, obs.SpanChaseMapping:
		return "chase"
	case obs.SpanQueryEval:
		return "query"
	}
	return ""
}

// deadlineOf is the wall-clock retrieval bound the wizards run under
// by default; no workload should ever reach it.
var deadlineOf = core.NewGroupingWizard(nil, nil).Timeout

// wireLayers attributes the traced phase's op and resume requests to
// the layers through their span trees and the timed store calls.
func wireLayers(rep *report, spans []obs.SpanRecord, reqs []reqRec, stores []*timedStore) {
	byReq := map[string]obs.SpanRecord{}
	byTrace := map[string][]obs.SpanRecord{}
	for _, s := range spans {
		if s.TraceID == "" {
			continue
		}
		if s.Name == obs.SpanSrvRequest {
			byReq[attrStr(s, "request_id")] = s
		} else {
			byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
		}
	}
	var calls []storeCall
	byToken := map[string][]storeCall{}
	for _, ts := range stores {
		calls = append(calls, ts.calls...)
		for _, c := range ts.calls {
			byToken[c.token] = append(byToken[c.token], c)
		}
	}
	storeTime := func(token string, lo, hi time.Time, op string) (time.Duration, int) {
		var d time.Duration
		n := 0
		for _, c := range byToken[token] {
			if !c.start.Before(lo) && !c.end.After(hi) && (op == "" || c.op == op) {
				d += c.end.Sub(c.start)
				n += c.answers
			}
		}
		return d, n
	}

	var srvSelf, coreSelf, chaseMs, unattr, evalMs, opMs []float64
	var queryTotal, scanned, matched, evals, chaseCalls, chaseTuples, steps float64
	var replayMs, replayed, respBytes float64
	deadlineHits := 0
	for _, rq := range reqs {
		sp, ok := byReq[rq.id]
		if !ok {
			rep.fail("no server.request span for request %s", rq.id)
			continue
		}
		lo, hi := sp.Start, sp.Start.Add(sp.Dur)
		children := byTrace[sp.TraceID]
		if rq.resume {
			load, n := storeTime(rq.token, lo, hi, "load")
			// A replay recomputes every stored answer's question and the
			// pending one.
			replayMs += ms(sp.Dur - load)
			replayed += float64(n + 1)
			continue
		}
		if !rq.op {
			continue
		}
		var coreIv, chaseIv, queryIv, all []span
		for _, c := range children {
			iv := spanOf(c)
			switch layer(c.Name) {
			case "core":
				coreIv = append(coreIv, iv)
			case "chase":
				chaseIv = append(chaseIv, iv)
				if c.Name == obs.SpanChase {
					chaseCalls++
				} else {
					chaseTuples += attrNum(c, "tuples")
				}
			case "query":
				queryIv = append(queryIv, iv)
				evalMs = append(evalMs, ms(c.Dur))
				scanned += attrNum(c, "scanned")
				matched += attrNum(c, "matches")
				evals++
				if c.Dur >= deadlineOf {
					deadlineHits++
				}
			default:
				continue
			}
			all = append(all, iv)
		}
		covered := union(all, lo, hi)
		below := union(append(append([]span(nil), chaseIv...), queryIv...), lo, hi)
		store, _ := storeTime(rq.token, lo, hi, "")
		srvSelf = append(srvSelf, ms(sp.Dur-covered-store))
		coreSelf = append(coreSelf, ms(covered-below))
		chaseMs = append(chaseMs, ms(union(chaseIv, lo, hi)))
		queryTotal += ms(union(queryIv, lo, hi))
		lat := rq.end.Sub(rq.start)
		opMs = append(opMs, ms(lat))
		unattr = append(unattr, ms(lat-sp.Dur))
		respBytes += float64(rq.respBytes)
		steps++
	}
	L := rep.layers
	L["server.self_ms_p50"] = median(srvSelf)
	L["server.resp_kb_per_step"] = ratio(respBytes/1024, steps)
	L["core.step_self_ms_p50"] = median(coreSelf)
	L["core.replay_ms_per_answer"] = ratio(replayMs, replayed)
	L["query.eval_ms_p50"] = median(evalMs)
	L["query.eval_ms_max"] = maxOf(evalMs)
	L["query.eval_share"] = ratio(queryTotal, sum(opMs))
	L["query.rows_scanned_per_eval"] = ratio(scanned, evals)
	L["query.returned_per_scanned"] = ratio(matched, scanned)
	L["query.deadline_hits"] = float64(deadlineHits)
	if deadlineHits > 0 {
		rep.failN(int64(deadlineHits), "%d query.eval spans reached the %v retrieval deadline", deadlineHits, deadlineOf)
	}
	L["chase.self_ms_p50"] = median(chaseMs)
	L["chase.calls_per_step"] = ratio(chaseCalls, steps)
	L["chase.tuples_per_call"] = ratio(chaseTuples, chaseCalls)
	L["unattributed_ms_p50"] = median(unattr)

	var appendUs, loadMs []float64
	for _, c := range calls {
		switch c.op {
		case "append":
			appendUs = append(appendUs, float64(c.end.Sub(c.start))/1e3)
		case "load":
			loadMs = append(loadMs, ms(c.end.Sub(c.start)))
		}
	}
	L["walstore.append_us_p50"] = median(appendUs)
	L["walstore.append_us_tail"] = quantile(appendUs, 0.99)
	L["walstore.load_ms_p50"] = median(loadMs)
}

// registryLayers reads the layer counters the program keeps, summed
// over the replicas' registries.
func registryLayers(rep *report, regs []*obs.Registry) {
	get := func(name string) float64 {
		t := 0.0
		for _, r := range regs {
			t += float64(r.Get(name))
		}
		return t
	}
	L := rep.layers
	L["server.evictions"] = get(obs.MSrvSessionsEvicted)
	L["server.resumes"] = get(obs.MSrvResumes)
	real := get(obs.MMuseGRealExamples) + get(obs.MMuseDRealExamples)
	synth := get(obs.MMuseGSyntheticExamples) + get(obs.MMuseDSyntheticExamples)
	L["core.real_example_ratio"] = ratio(real, real+synth)
	L["query.index_hit_ratio"] = ratio(get(obs.MIndexHits), get(obs.MIndexProbes))
	L["query.index_build_ms"] = ratio(get(obs.MIndexBuildNanos)/1e6, float64(len(regs)))
	L["chase.workers"] = get(obs.GChaseWorkers) / float64(len(regs))
	L["walstore.bytes_per_append"] = ratio(get(obs.MSrvWALBytes), get(obs.MSrvWALAppends))
	L["walstore.fsyncs_per_answer"] = ratio(get(obs.MSrvWALFsyncs), get(obs.MSrvAnswers))
}

// dialogLayers summarizes the dialogs the designer finished.
func dialogLayers(rep *report, logs []*dialogLog, timer *rankTimer) {
	var g, d, dec, ranked, n float64
	for _, lg := range logs {
		k := float64(lg.n)
		g += k * float64(lg.museG)
		d += k * float64(lg.museD)
		dec += k * float64(lg.decisive)
		ranked += k * float64(lg.ranked)
		n += k
	}
	L := rep.layers
	L["core.questions_per_dialog"] = ratio(g+d, n)
	L["core.museg_questions_per_dialog"] = ratio(g, n)
	L["core.mused_questions_per_dialog"] = ratio(d, n)
	L["rank.decisive_ratio"] = ratio(dec, ranked)
	if timer != nil {
		L["rank.score_us_p50"] = median(timer.us)
	}
}
