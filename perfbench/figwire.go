package main

import (
	"bytes"
	"context"
	"runtime"
	"time"

	"muse/internal/obs"
	"muse/internal/server"
)

// fig-wire: musesrv as shipped (built-in fig1 and fig4, the default
// memory store, observability on, ranking off) under a closed-loop
// designer. A seeded share of dialogs is abandoned mid-dialog, so the
// manager fills to MaxSessions and evicts by LRU; once an abandoned
// session is certainly evicted, the designer returns to it and the
// manager resumes it by replay from the store.
const (
	// p99.9, not p99: about one step in a hundred overlaps a
	// collection and runs several times slower, so p99 sits on the
	// edge between the two modes and jumps between them from run to
	// run.
	figTailQ   = 0.999
	figAbandon = 0.4
	// setup_s is the median of figSetupSamples samples of
	// figSetupBatch set-ups each: one set-up takes under a millisecond.
	figSetupSamples = 41
	figSetupBatch   = 50
)

var figScenarios = []string{"fig1", "fig4"}

// parkedDialog is an abandoned dialog the designer may come back to.
type parkedDialog struct {
	token string
	lg    *dialogLog
	raw   []byte // the pending question as last served
}

// returnQueue holds abandoned dialogs oldest first. The manager evicts
// the least recently used idle session, so once MaxSessions newer
// abandoned sessions exist the oldest can no longer be live.
type returnQueue struct {
	q       []parkedDialog
	limit   int
	returns int
}

func (r *returnQueue) push(p parkedDialog) { r.q = append(r.q, p) }

func (r *returnQueue) pop() (parkedDialog, bool) {
	if len(r.q) <= r.limit {
		return parkedDialog{}, false
	}
	p := r.q[0]
	r.q = r.q[1:]
	r.returns++
	return p, true
}

// figReplica builds what a fig-wire replica pays for before its first
// op: the built-in scenarios, the store, the manager and Prime.
func figReplica(o *obs.Obs, wrap bool) (*server.Manager, map[string]*server.Scenario, *timedStore) {
	scs := server.Builtin()
	mg := server.NewManager(scs, o)
	var ts *timedStore
	var store server.SessionStore = server.NewMemStore()
	if wrap {
		ts = &timedStore{inner: store}
		store = ts
	}
	mg.Store = store
	mg.Prime(context.Background())
	return mg, scs, ts
}

func runFigWire(cfg config, traced bool) (*report, error) {
	rep := newReport()
	zeroLayers(rep)
	o := obs.New()
	var sink *spanSink
	if traced {
		sink = attachSink(o)
	}
	mg, scs, ts := figReplica(o, traced)
	r, err := serve(mg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	g0 := runtime.NumGoroutine()

	// One designer: with two, the designers' and handlers' goroutines
	// saturate a two-core box, and the tail measures run-queue waits
	// that follow the box's load rather than the server's work.
	queue := &returnQueue{limit: mg.MaxSessions}
	clock := startClock()
	d := newDesigner(cfg.seed, clock, rep, traced)
	deadline := cfg.deadline()
	hardStop := deadline.Add(60 * time.Second)
	for now := time.Now(); now.Before(hardStop) &&
		(now.Before(deadline) || clock.n() < minOps(figTailQ)); now = time.Now() {
		if p, ok := queue.pop(); ok {
			d.figReturn(r.base, p, queue)
		} else {
			d.figDialog(r.base, queue)
		}
	}
	clock.stop(rep, figTailQ)
	d.client.CloseIdleConnections()
	rep.e2e["resume_p50_ms"] = median(d.resume)
	rep.env["store"] = "mem"
	rep.env["max_sessions"] = mg.MaxSessions
	rep.env["returns"] = queue.returns

	// Every return must have rebuilt its session from the store.
	resumed := o.Registry().Get(obs.MSrvResumes)
	if resumed != int64(queue.returns) {
		rep.fail("server resumed %d sessions, %d returns were planned", resumed, queue.returns)
	}
	if traced {
		spans, err := sink.dump(cfg.out, "spans-fig-wire.jsonl")
		if err != nil {
			return nil, err
		}
		wireLayers(rep, spans, d.reqs, []*timedStore{ts})
		registryLayers(rep, []*obs.Registry{o.Registry()})
		dialogLayers(rep, d.dialogs(), nil)
		parkedCost(rep, mg, g0)
	}
	checkDialogs(rep, d.dialogs(), scs, 0, nil)
	r.close()

	// Set-up is timed after the window: every set-up leaves a few KiB
	// reachable for the life of the process (process-wide caches keyed
	// by set type, such as instance.TopID's, keep its catalogs), which
	// would otherwise weigh on the window's heap.
	setup, err := setupTimes(figSetupSamples, figSetupBatch, func() (func(), error) {
		mg, _, _ := figReplica(obs.New(), false)
		return mg.Close, nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	rep.e2e["success_ratio"] = ratio(float64(rep.attempted-rep.failed), float64(rep.attempted))
	return rep, nil
}

// parkedCost measures what the sessions left parked after the run
// hold: goroutines and live heap, per session, by closing them all.
func parkedCost(rep *report, mg *server.Manager, g0 int) {
	live := mg.Len()
	rep.layers["server.live_sessions"] = float64(live)
	if live == 0 {
		return
	}
	g1, h1 := runtime.NumGoroutine(), liveHeap()
	mg.Close()
	// Closed steppers' goroutines exit asynchronously.
	for i := 0; i < 100 && runtime.NumGoroutine() > g0; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	g2, h2 := runtime.NumGoroutine(), liveHeap()
	rep.layers["core.parked_goroutines_per_session"] = float64(g1-g2) / float64(live)
	rep.layers["core.parked_heap_kb_per_session"] = (float64(h1) - float64(h2)) / 1024 / float64(live)
}

// figDialog runs one fresh dialog: create, answer until done or the
// seeded abandonment point, then fetch the result and delete.
func (d *designer) figDialog(base string, queue *returnQueue) {
	sc := figScenarios[d.rng.Intn(len(figScenarios))]
	abandonAt := -1
	if d.rng.Float64() < figAbandon {
		abandonAt = 1 + d.rng.Intn(3)
	}
	lg := &dialogLog{scenario: sc}
	ws, raw, ok := d.step(base, "POST", "/v1/sessions", []byte(`{"scenario":"`+sc+`"}`), "op", 201)
	if ok {
		d.figContinue(base, ws, raw, lg, abandonAt, queue)
	}
}

// figReturn comes back to an abandoned dialog: the pending question
// must come back byte-identical from the replayed session.
func (d *designer) figReturn(base string, p parkedDialog, queue *returnQueue) {
	ws, raw, ok := d.step(base, "GET", "/v1/sessions/"+p.token, nil, "resume", 200)
	if !ok {
		return
	}
	if !bytes.Equal(raw, p.raw) {
		d.rep.fail("resumed question of %s differs from the one served before", p.token)
		return
	}
	d.figContinue(base, ws, raw, p.lg, -1, queue)
}

func (d *designer) figContinue(base string, ws wireStep, raw []byte, lg *dialogLog, abandonAt int, queue *returnQueue) {
	token := ws.Token
	var ok bool
	for n := 1; pending(ws); n++ {
		if n == abandonAt {
			queue.push(parkedDialog{token: token, lg: lg, raw: raw})
			return
		}
		body := d.answer(ws, lg)
		if ws, raw, ok = d.step(base, "POST", "/v1/sessions/"+token+"/answer", body, "op", 200); !ok {
			return
		}
	}
	if ws.Step.State != "done" {
		d.rep.fail("dialog %s ended in state %q", token, ws.Step.State)
		return
	}
	d.finishDialog(base, token, lg)
}
