package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"muse/internal/core"
	"muse/internal/obs"
)

// The envelope goldens pin the wire bytes of every response kind:
// testdata/envelope_<kind>.json holds the concatenated bodies, exactly
// as served by the direct renderer, of
//
//   - grouping: unranked Muse-G question steps,
//   - choice:   unranked Muse-D question steps,
//   - ranked:   question steps carrying a ranking / rankings block,
//   - terminal: done steps and done result documents,
//   - error:    failed steps, failed result documents, and {error,code}
//     bodies.
//
// TestRenderDirectDialogs serves full dialogs over every builtin
// scenario, with ranking off and on, answered by a fixed policy
// (scenario 1 + n%2; the first alternative of every or-group);
// TestRenderDirectFailed serves the error kinds. Session tokens are
// replaced by "TOKEN" and every request carries a fixed request id, so
// the bytes are deterministic. Regenerate with UPDATE_GOLDEN=1.

const goldenRID = "golden-request"

// goldenRecorder serves requests and files each body under its kind.
type goldenRecorder struct {
	t    *testing.T
	base string
	out  map[string]*bytes.Buffer
}

func newGoldenRecorder(t *testing.T) *goldenRecorder {
	return &goldenRecorder{t: t, out: map[string]*bytes.Buffer{}}
}

func (g *goldenRecorder) do(method, path, body, token string) (int, map[string]any) {
	g.t.Helper()
	req, err := http.NewRequest(method, g.base+path, strings.NewReader(body))
	if err != nil {
		g.t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, goldenRID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		g.t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		g.t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		g.t.Fatalf("%s %s: body is not JSON: %v", method, path, err)
	}
	if token == "" {
		token, _ = doc["token"].(string)
	}
	if token != "" {
		raw = bytes.ReplaceAll(raw, []byte(token), []byte("TOKEN"))
	}
	g.file(envelopeKind(doc), raw)
	return resp.StatusCode, doc
}

func (g *goldenRecorder) file(kind string, raw []byte) {
	if g.out[kind] == nil {
		g.out[kind] = new(bytes.Buffer)
	}
	g.out[kind].Write(raw)
}

// envelopeKind classifies a served body.
func envelopeKind(doc map[string]any) string {
	if _, ok := doc["code"]; ok {
		return "error"
	}
	state, _ := doc["state"].(string)
	if step, ok := doc["step"].(map[string]any); ok {
		state, _ = step["state"].(string)
		if q, ok := step["grouping"].(map[string]any); ok && q["ranking"] != nil {
			return "ranked"
		}
		if q, ok := step["choice"].(map[string]any); ok && q["rankings"] != nil {
			return "ranked"
		}
	}
	switch state {
	case "grouping_question":
		return "grouping"
	case "choice_question":
		return "choice"
	case "done":
		return "terminal"
	}
	return "error"
}

// dialog serves one full dialog and its result document.
func (g *goldenRecorder) dialog(scenario string) {
	g.t.Helper()
	status, doc := g.do("POST", "/v1/sessions", `{"scenario":"`+scenario+`"}`, "")
	if status != http.StatusCreated {
		g.t.Fatalf("create %s: status %d", scenario, status)
	}
	token := doc["token"].(string)
	for n := 0; ; n++ {
		if n > 100 {
			g.t.Fatalf("%s: dialog did not terminate", scenario)
		}
		step := doc["step"].(map[string]any)
		var body string
		switch step["state"] {
		case "grouping_question":
			body = `{"scenario":` + string(rune('1'+n%2)) + `}`
		case "choice_question":
			groups := len(step["choice"].(map[string]any)["choices"].([]any))
			body = `{"choices":[` + strings.TrimSuffix(strings.Repeat("[0],", groups), ",") + `]}`
		default:
			if status, _ := g.do("GET", "/v1/sessions/"+token+"/result", "", token); status != http.StatusOK {
				g.t.Fatalf("%s result: status %d", scenario, status)
			}
			return
		}
		if status, doc = g.do("POST", "/v1/sessions/"+token+"/answer", body, token); status != http.StatusOK {
			g.t.Fatalf("%s answer %d: status %d", scenario, n+1, status)
		}
	}
}

// TestRenderDirectDialogs checks the question and terminal envelopes
// of full served dialogs against their goldens.
func TestRenderDirectDialogs(t *testing.T) {
	g := newGoldenRecorder(t)
	names := make([]string, 0, 2)
	for name := range Builtin() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, threshold := range []float64{0, 0.1} {
		mg := NewManager(Builtin(), obs.New())
		mg.AutoThreshold = threshold
		ts := httptest.NewServer(New(mg))
		for _, name := range names {
			label := name
			if threshold > 0 {
				label += "-ranked"
			}
			t.Run(label, func(t *testing.T) {
				g.t, g.base = t, ts.URL
				g.dialog(name)
			})
		}
		ts.Close()
		mg.Close()
	}
	g.t = t
	g.compare("grouping", "choice", "ranked", "terminal")
}

// TestRenderDirectFailed checks the error envelopes against their
// golden: {error,code} bodies, and the step and result of a session
// whose wizard work failed.
func TestRenderDirectFailed(t *testing.T) {
	g := newGoldenRecorder(t)
	mg := NewManager(Builtin(), obs.New())
	defer mg.Close()
	ts := httptest.NewServer(New(mg))
	defer ts.Close()
	g.base = ts.URL
	_, doc := g.do("POST", "/v1/sessions", `{"scenario":"fig1"}`, "")
	g.out = map[string]*bytes.Buffer{} // the question above has its own golden
	live := doc["token"].(string)
	g.do("POST", "/v1/sessions/"+live+"/answer", `{"scenario":7}`, live)
	g.do("GET", "/v1/sessions/"+live+"/result", "", live)
	g.do("GET", "/v1/sessions/nosuch", "", "")
	g.do("POST", "/v1/sessions", `{"scenario":"nope"}`, "")
	g.do("POST", "/v1/sessions", `{scenario`, "")
	// Created under a dead context, the session's step and result are
	// terminal failures.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	sess, err := mg.Create(dead, "fig1")
	if err != nil {
		t.Fatal(err)
	}
	sess.Release()
	g.do("GET", "/v1/sessions/"+sess.Token, "", sess.Token)
	g.do("GET", "/v1/sessions/"+sess.Token+"/result", "", sess.Token)

	// A failed step whose error text needs JSON and HTML escaping; no
	// request produces one, so it is rendered directly.
	fake := &Session{Token: "TOKEN", ScenarioName: "fig1"}
	step := core.Step{Seq: 2, Done: true, Err: errors.New("boom: <wizard & \"chase\"> aborted\n\u2028")}
	w := getJW()
	appendStepBody(w, fake, step)
	appendResult(w, fake, step)
	g.file("error", w.bytes())
	putJW(w)
	g.compare("error")
}

// compare checks each kind's served bytes against its golden, or
// rewrites the golden under UPDATE_GOLDEN.
func (g *goldenRecorder) compare(kinds ...string) {
	t := g.t
	for _, kind := range kinds {
		got := g.out[kind]
		if got == nil {
			t.Fatalf("no %s envelope was served", kind)
		}
		path := filepath.Join("testdata", "envelope_"+kind+".json")
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			i := diffAt(got.Bytes(), want)
			t.Errorf("%s envelopes diverge from %s at byte %d:\n served: %.160q\n golden: %.160q",
				kind, path, i, got.Bytes()[max(0, i-60):], want[max(0, i-60):])
		}
	}
}

func diffAt(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestWriteEscaped checks the string escaper against encoding/json on
// a corpus of adversarial strings: JSON specials, control bytes, the
// HTML escapes, multi-byte runes, U+2028/U+2029, and invalid UTF-8.
func TestWriteEscaped(t *testing.T) {
	corpus := []string{
		"",
		"plain ascii",
		`quotes " and \ backslash`,
		"tab\tnewline\ncarriage\rreturn",
		"controls \x00\x01\x1f\x7f",
		"html <b>&amp;</b>",
		"unicode: héllo wörld — ✓ 日本語",
		"line sep \u2028 and para sep \u2029",
		"invalid \xff\xfe utf8 \xc3\x28 tail",
		"mixed <\u2028\xffcontrol\x02> & done",
	}
	for _, s := range corpus {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		writeEscapedString(&b, s)
		if got := b.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("writeEscapedString(%q) = %s, want %s", s, got, want)
		}
		b.Reset()
		writeEscapedBytes(&b, []byte(s))
		if got := b.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("writeEscapedBytes(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestPrime checks that priming builds the shared stores up front and
// that primed scenarios serve sessions normally.
func TestPrime(t *testing.T) {
	mg := NewManager(Builtin(), obs.New())
	defer mg.Close()
	mg.Prime(context.Background())
	for name, sc := range mg.Scenarios {
		if sc.Real != nil && sc.store == nil {
			t.Errorf("scenario %s: store not built by Prime", name)
		}
	}
	if n := mg.Len(); n != 0 {
		t.Errorf("Prime registered %d sessions, want 0", n)
	}
	s, err := mg.Create(context.Background(), "fig1")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	step, err := s.Stepper.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if step.Grouping == nil {
		t.Fatalf("first fig1 step = %+v, want grouping question", step)
	}
}
