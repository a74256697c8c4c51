package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"muse/internal/obs"
	"muse/internal/query"
	"muse/internal/rank"
	"muse/internal/scenarios"
	"muse/internal/server"
	"muse/internal/server/walstore"
)

// mondial-durable: Mondial at paper scale 1 with ranking on, served by
// two Manager+Server replicas that share one walstore directory (the
// shared-directory fleet of docs/OPERATIONS.md), every append
// fsynced. The designer starts its dialogs on the two replicas in turn
// and, at a seeded question in the middle half of the dialog, fetches
// the pending question from the other replica, which resumes the
// dialog by replay from the shared log; the dialog finishes there.
const (
	durTailQ  = 0.99
	durScale  = 1.0
	durRankAt = 0.15
	// Hand-offs fall in [durHandoffLo, durHandoffLo+durHandoffSpan),
	// inside the middle half of every Mondial dialog the seeded policy
	// makes (375 to 520 questions). The span is narrow because replay
	// cost grows with the index: a wide span would make resume_p50_ms
	// depend on which indexes a run happens to draw.
	durHandoffLo   = 198
	durHandoffSpan = 16
	// setup_s is the median of durSetupSamples samples of
	// durSetupBatch set-ups each.
	durSetupSamples = 21
	durSetupBatch   = 4
)

// durableReplica builds what one replica pays for before its first op:
// scenario generation, the source instance, opening the shared store
// with its recovery scan, the manager, and Prime.
func durableReplica(dir string, o *obs.Obs, wrap bool) (*server.Manager, *server.Scenario, *walstore.Store, *timedStore, error) {
	s := scenarios.Mondial()
	set, err := s.Generate()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sc := &server.Scenario{Deps: s.Src, Real: s.NewInstance(durScale), Set: set}
	ws, _, err := walstore.Open(dir, walstore.Options{Fsync: true, Reg: o.Registry()})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	mg := server.NewManager(map[string]*server.Scenario{"mondial": sc}, o)
	mg.AutoThreshold = durRankAt
	var store server.SessionStore = ws
	var ts *timedStore
	if wrap {
		ts = &timedStore{inner: ws}
		store = ts
	}
	mg.Store = store
	mg.Prime(context.Background())
	return mg, sc, ws, ts, nil
}

func runDurable(cfg config, traced bool) (*report, error) {
	rep := newReport()
	zeroLayers(rep)
	dir := filepath.Join(cfg.out, fmt.Sprintf("wal-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var rs []*replica
	var wss []*walstore.Store
	var sinks []*spanSink
	var stores []*timedStore
	var regs []*obs.Registry
	var sc *server.Scenario
	for i := 0; i < 2; i++ {
		o := obs.New()
		if traced {
			sinks = append(sinks, attachSink(o))
		}
		mg, s, ws, ts, err := durableReplica(dir, o, traced)
		if err != nil {
			return nil, err
		}
		defer ws.Close()
		wss = append(wss, ws)
		r, err := serve(mg)
		if err != nil {
			return nil, err
		}
		defer r.close()
		rs = append(rs, r)
		stores = append(stores, ts)
		regs = append(regs, o.Registry())
		if sc == nil {
			sc = s
		}
	}

	u := rand.New(rand.NewSource(cfg.seed)).Float64()
	// Flush earlier writes (a fresh build's cache, the previous run's
	// logs) so their write-back does not land on this run's fsyncs.
	syscall.Sync()
	clock := startClock()
	deadline := cfg.deadline()
	hardStop := deadline.Add(90 * time.Second)
	// One designer: a second one's fsyncs would queue behind the
	// first's in the filesystem journal and make every step's latency
	// depend on the other's timing. Dialog k starts on replica k%2.
	d := newDesigner(cfg.seed, clock, rep, traced)
	planned, inMiddle := 0, 0
	for k := 0; ; k++ {
		now := time.Now()
		if !now.Before(hardStop) || (!now.Before(deadline) && clock.n() >= minOps(durTailQ)) {
			break
		}
		at := durHandoffLo + int(golden(u, k)*durHandoffSpan)
		home := k % 2
		if n, ok := d.durableDialog(rs[home].base, rs[1-home].base, at); ok {
			planned++
			if 4*at >= n && 4*at < 3*n {
				inMiddle++
			}
		}
	}
	clock.stop(rep, durTailQ)
	d.client.CloseIdleConnections()
	logs := d.dialogs()
	rep.e2e["resume_p50_ms"] = median(d.resume)
	resumed := 0.0
	for _, reg := range regs {
		resumed += float64(reg.Get(obs.MSrvResumes))
	}
	if int(resumed) != planned {
		rep.fail("replicas resumed %v dialogs, %d hand-offs were planned", resumed, planned)
	}
	rep.env["store"] = "wal"
	rep.env["flush"] = "fsync every append"
	rep.env["wal_dir"] = dir
	rep.env["wal_fs"] = fsName(dir)
	rep.env["latency_note"] = "store latency is that of the filesystem holding the checkout, not of a dedicated device"
	rep.env["handoffs"] = planned
	rep.env["handoffs_in_middle_half"] = inMiddle

	var timer *rankTimer
	if traced {
		var spans []obs.SpanRecord
		for i, s := range sinks {
			sp, err := s.dump(cfg.out, fmt.Sprintf("spans-mondial-durable-replica%d.jsonl", i))
			if err != nil {
				return nil, err
			}
			spans = append(spans, sp...)
		}
		wireLayers(rep, spans, d.reqs, stores)
		registryLayers(rep, regs)
		timer = &rankTimer{sc: &rank.Scorer{Deps: sc.Deps, Store: query.NewIndexStore(sc.Real), Threshold: durRankAt}}
		live := 0
		for _, r := range rs {
			live += r.mg.Len()
		}
		rep.layers["server.live_sessions"] = float64(live)
	}
	checkDialogs(rep, logs, map[string]*server.Scenario{"mondial": sc}, durRankAt, timer)
	if traced {
		dialogLayers(rep, logs, timer)
	}
	for i, r := range rs {
		r.close()
		wss[i].Close()
	}

	// Set-up is timed after the window, on the same directory, so what
	// set-ups leave reachable does not weigh on the window's heap.
	syscall.Sync()
	setup, err := setupTimes(durSetupSamples, durSetupBatch, func() (func(), error) {
		mg, _, ws, _, err := durableReplica(dir, obs.New(), false)
		if err != nil {
			return nil, err
		}
		return func() { mg.Close(); ws.Close() }, nil
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	rep.e2e["success_ratio"] = ratio(float64(rep.attempted-rep.failed), float64(rep.attempted))
	return rep, nil
}

// durableDialog runs one dialog that starts on home and, at question
// handoffAt, moves to other, which must serve the pending question
// byte-identical to home's. It returns the dialog's question count and
// whether the hand-off happened.
func (d *designer) durableDialog(home, other string, handoffAt int) (int, bool) {
	lg := &dialogLog{scenario: "mondial"}
	ws, raw, ok := d.step(home, "POST", "/v1/sessions", []byte(`{"scenario":"mondial"}`), "op", 201)
	if !ok {
		return 0, false
	}
	token, base, moved := ws.Token, home, false
	n := 1
	for ; pending(ws); n++ {
		if n == handoffAt {
			var again []byte
			if ws, again, ok = d.step(other, "GET", "/v1/sessions/"+token, nil, "resume", 200); !ok {
				return n, true
			}
			if !bytes.Equal(again, raw) {
				d.rep.fail("question %d of %s differs after the hand-off", n, token)
				return n, true
			}
			base, moved = other, true
		}
		body := d.answer(ws, lg)
		if ws, raw, ok = d.step(base, "POST", "/v1/sessions/"+token+"/answer", body, "op", 200); !ok {
			return n, moved
		}
	}
	if ws.Step.State != "done" {
		d.rep.fail("dialog %s ended in state %q", token, ws.Step.State)
		return n, moved
	}
	d.finishDialog(base, token, lg)
	return n - 1, moved
}

// fsName names the filesystem holding dir, for the result record.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
