package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"muse/internal/core"
	"muse/internal/parser"
	"muse/internal/server"
)

// replica is one in-process musesrv: a Manager behind a Server on a
// loopback listener.
type replica struct {
	mg   *server.Manager
	base string
	hs   *http.Server
	done chan struct{}
}

// serve puts the manager on a loopback port.
func serve(mg *server.Manager) (*replica, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &replica{mg: mg, base: "http://" + ln.Addr().String(),
		hs: &http.Server{Handler: server.New(mg)}, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return r, nil
}

// close stops the listener, waits for the serving goroutine, and
// closes every live session.
func (r *replica) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.hs.Shutdown(ctx) // a timeout leaves nothing to do but Close
	r.hs.Close()
	<-r.done
	r.mg.Close()
}

// wireStep is the part of a step envelope the designer reads.
type wireStep struct {
	Token string `json:"token"`
	Step  struct {
		State    string `json:"state"`
		Grouping struct {
			Ranking *struct {
				Decisive bool `json:"decisive"`
			} `json:"ranking"`
		} `json:"grouping"`
		Choice struct {
			Choices []struct {
				Values []json.RawMessage `json:"values"`
			} `json:"choices"`
			Rankings []struct {
				Decisive bool `json:"decisive"`
			} `json:"rankings"`
		} `json:"choice"`
	} `json:"step"`
}

// wireResult is the /result document.
type wireResult struct {
	State     string `json:"state"`
	Questions int    `json:"questions"`
	Mappings  []struct {
		Name string `json:"name"`
		Text string `json:"text"`
	} `json:"mappings"`
}

// reqRec is one request as the designer saw it, for attributing the
// traced run's spans and store calls to ops.
type reqRec struct {
	id         string
	token      string
	start, end time.Time
	op         bool // a step-producing request counted in op_*
	resume     bool // a hand-off or return that rebuilds the dialog
	respBytes  int
}

// dialogLog is everything needed to check a finished dialog against
// the library.
type dialogLog struct {
	scenario string
	answers  []core.Answer
	result   wireResult
	museG    int
	museD    int
	decisive int // questions whose ranking was decisive
	ranked   int // questions that carried a ranking
	// n counts the finished dialogs with this answer log and result:
	// the designer keeps one log per distinct dialog, so the
	// benchmark's own memory does not grow with the op count.
	n int
}

func (lg *dialogLog) key() string {
	return lg.scenario + "\x00" + fmt.Sprint(lg.answers) + "\x00" + fmt.Sprint(lg.result)
}

// designer is the closed-loop client: it sends its next request only
// after the previous reply, and tallies into the workload's report.
type designer struct {
	rng    *rand.Rand
	client *http.Client
	clock  *opClock
	rep    *report
	nreq   int
	traced bool
	reqs   []reqRec // kept on traced phases only
	logs   map[string]*dialogLog
	resume []float64 // ms
}

func newDesigner(seed int64, clock *opClock, rep *report, traced bool) *designer {
	return &designer{
		rng:    rand.New(rand.NewSource(seed * 1000003)),
		clock:  clock,
		rep:    rep,
		traced: traced,
		logs:   map[string]*dialogLog{},
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
	}
}

// dialogs returns the distinct finished dialogs.
func (d *designer) dialogs() []*dialogLog {
	out := make([]*dialogLog, 0, len(d.logs))
	for _, lg := range d.logs {
		out = append(out, lg)
	}
	return out
}

// do sends one request with a designer-minted request id (so the
// traced run can find its server.request span) and reads the body.
func (d *designer) do(base, method, path string, body []byte, kind string) (int, []byte, reqRec, error) {
	d.nreq++
	rec := reqRec{id: "d-" + strconv.Itoa(d.nreq),
		op: kind == "op", resume: kind == "resume"}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return 0, nil, rec, err
	}
	req.Header.Set(server.RequestIDHeader, rec.id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	d.rep.attempted++
	rec.start = time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		d.rep.fail("%s %s: %v", method, path, err)
		return 0, nil, rec, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end = time.Now()
	if err != nil {
		d.rep.fail("%s %s: reading body: %v", method, path, err)
		return 0, nil, rec, err
	}
	rec.respBytes = len(raw)
	if st := resp.StatusCode; st == http.StatusConflict || st == http.StatusServiceUnavailable || st >= 500 {
		d.rep.layers["server.refused"]++
	}
	if resp.StatusCode >= 300 {
		d.rep.fail("%s %s: status %d: %s", method, path, resp.StatusCode, firstLine(raw))
	}
	switch {
	case rec.op:
		d.clock.add(rec.end.Sub(rec.start))
	case rec.resume:
		d.resume = append(d.resume, ms(rec.end.Sub(rec.start)))
	}
	return resp.StatusCode, raw, rec, nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// step sends a step-producing request and decodes the envelope.
func (d *designer) step(base, method, path string, body []byte, kind string, want int) (wireStep, []byte, bool) {
	var ws wireStep
	status, raw, rec, err := d.do(base, method, path, body, kind)
	if err != nil || status != want {
		if err == nil && status < 300 {
			d.rep.fail("%s %s: status %d, want %d", method, path, status, want)
		}
		return ws, nil, false
	}
	if err := json.Unmarshal(raw, &ws); err != nil {
		d.rep.fail("%s %s: decoding step: %v", method, path, err)
		return ws, nil, false
	}
	if d.traced {
		rec.token = ws.Token
		d.reqs = append(d.reqs, rec)
	}
	return ws, raw, true
}

// answer picks the seeded reply to the pending question: a fair coin
// between the two grouping scenarios; for a choice question one
// alternative per or-group, occasionally two (which keeps several
// interpretations, the expensive path).
func (d *designer) answer(ws wireStep, lg *dialogLog) []byte {
	var a core.Answer
	if ws.Step.State == "grouping_question" {
		lg.museG++
		if rk := ws.Step.Grouping.Ranking; rk != nil {
			lg.ranked++
			if rk.Decisive {
				lg.decisive++
			}
		}
		a.Scenario = 1 + d.rng.Intn(2)
	} else {
		lg.museD++
		if len(ws.Step.Choice.Rankings) > 0 {
			lg.ranked++
			dec := true
			for _, rk := range ws.Step.Choice.Rankings {
				dec = dec && rk.Decisive
			}
			if dec {
				lg.decisive++
			}
		}
		for _, g := range ws.Step.Choice.Choices {
			n := len(g.Values)
			first := d.rng.Intn(n)
			if n >= 2 && d.rng.Float64() < 0.15 {
				a.Choices = append(a.Choices, []int{first, (first + 1 + d.rng.Intn(n-1)) % n})
			} else {
				a.Choices = append(a.Choices, []int{first})
			}
		}
	}
	lg.answers = append(lg.answers, a)
	body, _ := json.Marshal(struct {
		Scenario int     `json:"scenario,omitempty"`
		Choices  [][]int `json:"choices,omitempty"`
	}{a.Scenario, a.Choices})
	return body
}

// pending reports whether the envelope holds a question.
func pending(ws wireStep) bool {
	return ws.Step.State == "grouping_question" || ws.Step.State == "choice_question"
}

// finishDialog fetches the result of a finished dialog and deletes it.
func (d *designer) finishDialog(base, token string, lg *dialogLog) {
	status, raw, _, err := d.do(base, "GET", "/v1/sessions/"+token+"/result", nil, "result")
	if err == nil && status == http.StatusOK {
		if err := json.Unmarshal(raw, &lg.result); err != nil {
			d.rep.fail("result %s: %v", token, err)
		} else if same := d.logs[lg.key()]; same != nil {
			same.n++
		} else {
			lg.n = 1
			d.logs[lg.key()] = lg
		}
	}
	d.do(base, "DELETE", "/v1/sessions/"+token, nil, "delete")
}

// scriptDesigner replays an answer log through the library's callback
// dialog; with a scorer attached it also times rank.Scorer on each
// question's inputs.
type scriptDesigner struct {
	answers []core.Answer
	next    int
	timer   *rankTimer
}

func (s *scriptDesigner) take() (core.Answer, error) {
	if s.next >= len(s.answers) {
		return core.Answer{}, fmt.Errorf("dialog asked question %d, log has %d answers", s.next+1, len(s.answers))
	}
	a := s.answers[s.next]
	s.next++
	return a, nil
}

func (s *scriptDesigner) ChooseScenario(q *core.GroupingQuestion) (int, error) {
	s.timer.grouping(q)
	a, err := s.take()
	return a.Scenario, err
}

func (s *scriptDesigner) SelectValues(q *core.ChoiceQuestion) ([][]int, error) {
	s.timer.choice(q)
	a, err := s.take()
	return a.Choices, err
}

// checkDialogs replays every distinct logged dialog through
// core.Session.Run and counts the dialogs whose refined mappings
// differ from the wire result as failed ops. Two goroutines share the
// work.
func checkDialogs(rep *report, logs []*dialogLog, scs map[string]*server.Scenario, rankAt float64, timer *rankTimer) {
	verdicts := make([]string, len(logs))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				verdicts[j] = replayVerdict(logs[j], scs[logs[j].scenario], rankAt, timer)
			}
		}()
	}
	for j := range logs {
		work <- j
	}
	close(work)
	wg.Wait()
	for j, lg := range logs {
		rep.attempted += int64(lg.n)
		if v := verdicts[j]; v != "" {
			rep.failN(int64(lg.n), "%d %s dialog(s) of %d answers: %s", lg.n, lg.scenario, len(lg.answers), v)
		}
	}
}

// replayVerdict returns "" when the library, replaying the dialog's
// answers, refines the scenario's mappings to exactly the wire result.
func replayVerdict(lg *dialogLog, sc *server.Scenario, rankAt float64, timer *rankTimer) string {
	cs := core.NewSession(sc.Deps, sc.Real)
	cs.Grouping.Prefetch = false
	if rankAt > 0 {
		cs.Rank(rankAt)
	}
	sd := &scriptDesigner{answers: lg.answers, timer: timer}
	out, err := cs.Run(sc.Set, sd, sd)
	switch {
	case err != nil:
		return "library replay: " + err.Error()
	case sd.next != len(lg.answers):
		return fmt.Sprintf("library dialog ended after %d of %d answers", sd.next, len(lg.answers))
	case lg.result.State != "done" || lg.result.Questions != len(lg.answers):
		return fmt.Sprintf("wire result state %q after %d questions", lg.result.State, lg.result.Questions)
	case len(out.Mappings) != len(lg.result.Mappings):
		return fmt.Sprintf("library refined %d mappings, wire %d", len(out.Mappings), len(lg.result.Mappings))
	}
	for i, m := range out.Mappings {
		w := lg.result.Mappings[i]
		if m.Name != w.Name || parser.FormatMapping(m) != w.Text {
			return "refined mapping " + m.Name + " differs from the library's"
		}
	}
	return ""
}

// golden spreads hand-off points evenly over their range whatever the
// seed: the k-th dialog's point is the fractional part of u + k/phi.
func golden(u float64, k int) float64 {
	_, f := math.Modf(u + float64(k)*0.6180339887498949)
	return f
}
