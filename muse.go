// Package muse is a Go implementation of Muse — the schema-mapping
// design wizard of Alexe, Chiticariu, Miller and Tan, "Muse: Mapping
// Understanding and deSign by Example" (ICDE 2008) — together with
// every substrate the paper builds on: the nested relational data
// model of Clio, a constraint system (keys, functional dependencies,
// referential constraints), the declarative mapping language, a chase
// engine producing canonical universal solutions, homomorphism and
// isomorphism checking, a conjunctive-query engine with inequalities,
// and a simplified Clio-style mapping generator.
//
// The two wizards are the paper's contribution:
//
//   - The GroupingWizard (Muse-G) designs the grouping function —
//     which source attributes determine how target data nests into
//     sets — by showing the designer a short sequence of two-scenario
//     questions over small (real or synthetic) examples. Keys and
//     functional dependencies in the source schema reduce the number
//     of questions.
//
//   - The DisambiguationWizard (Muse-D) resolves a semantically
//     ambiguous mapping (one with or-predicates) by showing a single
//     compact target instance whose ambiguous elements carry choice
//     lists, and translating the designer's picks back into an
//     unambiguous mapping.
//
// A quick tour (see examples/ for runnable programs):
//
//	doc, _ := muse.Parse(scenarioText)            // schemas, mappings, instances
//	set, _ := doc.MappingSet("CompDB", "OrgDB")   // the schema mapping (S, T, Σ)
//	target, _ := muse.Chase(doc.Instances["I"], set.Mappings...)
//
//	wizard := muse.NewGroupingWizard(doc.Deps["CompDB"], doc.Instances["I"])
//	refined, _ := wizard.DesignSK(set.ByName("m2"), "SKProjects", designer)
//
// The designer is anything implementing GroupingDesigner /
// DisambiguationDesigner — an interactive prompt (see cmd/muse) or a
// scripted oracle (package designers below, used by the experiment
// harness that reproduces the paper's evaluation tables).
package muse

import (
	"context"
	"io"

	"muse/internal/chase"
	"muse/internal/cliogen"
	"muse/internal/codegen"
	"muse/internal/core"
	"muse/internal/deps"
	"muse/internal/designer"
	"muse/internal/homo"
	"muse/internal/instance"
	"muse/internal/load"
	"muse/internal/mapping"
	"muse/internal/nr"
	"muse/internal/obs"
	"muse/internal/parser"
	"muse/internal/rank"
	"muse/internal/server"
)

// --- nested relational model ---

type (
	// Schema is a nested relational schema (a named root record).
	Schema = nr.Schema
	// Catalog indexes a schema's nested sets.
	Catalog = nr.Catalog
	// SetType describes one nested set of a schema.
	SetType = nr.SetType
	// Type is an NR type (String, Int, SetOf, Rcd, Choice).
	Type = nr.Type
	// Path names a position in a schema.
	Path = nr.Path
)

// NewSchema constructs and validates a schema.
func NewSchema(name string, root *Type) (*Schema, error) { return nr.NewSchema(name, root) }

// NewCatalog indexes a schema's nested sets.
func NewCatalog(s *Schema) (*Catalog, error) { return nr.NewCatalog(s) }

// Type constructors.
var (
	StringType = nr.StringType
	IntType    = nr.IntType
	Record     = nr.Record
	SetOf      = nr.SetOf
	ChoiceType = nr.Choice
	Field      = nr.F
)

// --- instances ---

type (
	// Instance is an instance of an NR schema.
	Instance = instance.Instance
	// Tuple is a record value in a nested set.
	Tuple = instance.Tuple
	// Value is a constant, labeled null, or SetID.
	Value = instance.Value
)

// NewInstance creates an empty instance of the catalog's schema.
func NewInstance(cat *Catalog) *Instance { return instance.New(cat) }

// Const wraps a string as a constant value.
func Const(s string) Value { return instance.C(s) }

// --- constraints ---

type (
	// Constraints bundles the keys, FDs and referential constraints of
	// one schema.
	Constraints = deps.Set
	// Key, FD, Ref are the constraint kinds.
	Key = deps.Key
	FD  = deps.FD
	Ref = deps.Ref
)

// NewConstraints creates an empty constraint set for the catalog.
func NewConstraints(cat *Catalog) *Constraints { return deps.NewSet(cat) }

// --- mappings ---

type (
	// Mapping is a schema mapping in the for/exists/where language.
	Mapping = mapping.Mapping
	// MappingSet is a schema mapping (S, T, Σ).
	MappingSet = mapping.Set
	// Expr is an attribute reference v.attr.
	Expr = mapping.Expr
)

// E constructs an attribute reference.
func E(v, attr string) Expr { return mapping.E(v, attr) }

// NewMappingSet assembles a validated schema mapping.
func NewMappingSet(src, tgt *Catalog, ms ...*Mapping) (*MappingSet, error) {
	return mapping.NewSet(src, tgt, ms...)
}

// --- chase and comparison ---

// Chase chases src with the mappings, producing the canonical
// universal solution (Fig. 2 of the paper). Multi-mapping chases run
// each mapping on its own core when available; the output is
// byte-identical to ChaseSerial's.
func Chase(src *Instance, ms ...*Mapping) (*Instance, error) { return chase.Chase(src, ms...) }

// ChaseSerial is the single-threaded chase, retained as the
// deterministic reference implementation.
func ChaseSerial(src *Instance, ms ...*Mapping) (*Instance, error) {
	return chase.ChaseSerial(src, ms...)
}

// ChaseObs is Chase with observability: when o is non-nil, chase
// counters (assignments, tuples, nulls) land in its registry and each
// run records "chase"/"chase.mapping" spans.
func ChaseObs(src *Instance, o *Obs, ms ...*Mapping) (*Instance, error) {
	return chase.ChaseObs(src, o, ms...)
}

// IsSolution reports whether tgt is a solution for src under the
// mappings.
func IsSolution(src, tgt *Instance, ms ...*Mapping) (bool, error) {
	return chase.IsSolution(src, tgt, ms...)
}

// Homomorphic, Equivalent and Isomorphic compare instances as in
// Sec. II of the paper.
var (
	Homomorphic = homo.Homomorphic
	Equivalent  = homo.Equivalent
	Isomorphic  = homo.Isomorphic
)

// --- mapping generation (simplified Clio) ---

type (
	// Corr is an attribute correspondence (an arrow).
	Corr = cliogen.Corr
)

// NewCorr builds a correspondence from dotted paths.
func NewCorr(srcSet, srcAttr, tgtSet, tgtAttr string) Corr {
	return cliogen.C(srcSet, srcAttr, tgtSet, tgtAttr)
}

// GenerateMappings runs the Clio-style generator: tableaux from the
// constraints, pairing over the correspondences, or-groups for
// ambiguous arrows, default G1 grouping functions.
func GenerateMappings(src, tgt *Constraints, corrs []Corr) (*MappingSet, error) {
	return cliogen.Generate(src, tgt, corrs)
}

// --- the wizards (the paper's contribution) ---

type (
	// GroupingWizard is Muse-G (Sec. III).
	GroupingWizard = core.GroupingWizard
	// DisambiguationWizard is Muse-D (Sec. IV).
	DisambiguationWizard = core.DisambiguationWizard
	// Session is the full design pipeline (Sec. V).
	Session = core.Session
	// GroupingQuestion is one Muse-G question.
	GroupingQuestion = core.GroupingQuestion
	// ChoiceQuestion is one Muse-D question.
	ChoiceQuestion = core.ChoiceQuestion
	// Choice is one ambiguous element of a Muse-D question.
	Choice = core.Choice
	// GroupingDesigner answers Muse-G questions.
	GroupingDesigner = core.GroupingDesigner
	// DisambiguationDesigner answers Muse-D questions.
	DisambiguationDesigner = core.DisambiguationDesigner
	// JoinQuestion asks whether unmatched data should be exchanged
	// (inner vs outer join semantics, Sec. IV "More options").
	JoinQuestion = core.JoinQuestion
	// JoinDesigner answers join questions.
	JoinDesigner = core.JoinDesigner
	// JoinVariant is one outer option of a mapping.
	JoinVariant = core.JoinVariant
)

// JoinVariants enumerates the outer variants of a mapping under the
// source constraints.
func JoinVariants(m *Mapping, src *Constraints) ([]JoinVariant, error) {
	return core.JoinVariants(m, src)
}

// NewGroupingWizard builds Muse-G over optional constraints and an
// optional real source instance.
func NewGroupingWizard(src *Constraints, real *Instance) *GroupingWizard {
	return core.NewGroupingWizard(src, real)
}

// NewDisambiguationWizard builds Muse-D.
func NewDisambiguationWizard(src *Constraints, real *Instance) *DisambiguationWizard {
	return core.NewDisambiguationWizard(src, real)
}

// NewSession builds the full pipeline: Muse-D, then Muse-G.
func NewSession(src *Constraints, real *Instance) *Session {
	return core.NewSession(src, real)
}

// --- evidence ranking and unattended design ---

type (
	// Ranking is the evidence scorer's verdict on one wizard question:
	// per-option scores, the recommended option, and whether the margin
	// is decisive. Wizards attach one to each question when a
	// rank.Scorer is installed (Session.Rank); rankings are advisory
	// and never change which questions are posed.
	Ranking = rank.Ranking
	// RankScore is one scored option of a Ranking.
	RankScore = rank.Score
	// AutoDesigner answers decisively ranked questions unattended and
	// escalates the rest to fallback designers.
	AutoDesigner = core.AutoDesigner
	// AutoStats tallies how an AutoDesigner disposed of its questions.
	AutoStats = core.AutoStats
)

// DefaultRankThreshold is the confidence margin below which a ranking
// is not decisive.
const DefaultRankThreshold = rank.DefaultThreshold

// NewAutoDesigner builds an unattended designer at the given
// confidence threshold (zero means DefaultRankThreshold), escalating
// indecisive questions to the fallbacks (either may be nil; with no
// fallback, indecisive questions are answered top-ranked anyway). The
// session must have ranking enabled: see Session.Rank.
func NewAutoDesigner(threshold float64, gd GroupingDesigner, dd DisambiguationDesigner) *AutoDesigner {
	return core.NewAutoDesigner(threshold, gd, dd)
}

// --- serving: resumable dialogs and the HTTP session server ---

type (
	// Stepper serves a Session's dialog one question at a time: read
	// the pending question with Step, submit replies with Answer — the
	// shape a server needs to host one wizard dialog across many
	// requests.
	Stepper = core.Stepper
	// Step is the externally visible state of a Stepper: a pending
	// question or the terminal result.
	Step = core.Step
	// Answer is one designer reply submitted to a Stepper.
	Answer = core.Answer
	// Server is the HTTP/JSON wizard-session server behind cmd/musesrv
	// (an http.Handler; see docs/API.md for the wire reference).
	Server = server.Server
	// ServerManager owns a server's bounded, token-addressed sessions.
	ServerManager = server.Manager
	// ServerScenario is one named mapping-design task a server offers.
	ServerScenario = server.Scenario
)

// ErrInvalidAnswer marks a Stepper answer that does not fit the
// pending question; the dialog does not advance.
var ErrInvalidAnswer = core.ErrInvalidAnswer

// NewStepper starts the full design pipeline (as Session.Run) as a
// resumable dialog. ctx bounds the work up to the first question; the
// caller must eventually Close the stepper or finish the dialog.
func NewStepper(ctx context.Context, s *Session, set *MappingSet) *Stepper {
	return core.NewStepper(ctx, s, set)
}

// ResumeStepper rebuilds a dialog by replaying previously accepted
// answers (a Stepper.Snapshot, or a durable answer log) through a
// fresh session. Dialogs are deterministic, so the resumed stepper
// asks the same remaining questions a never-interrupted one would.
func ResumeStepper(ctx context.Context, s *Session, set *MappingSet, answers []Answer) (*Stepper, error) {
	return core.ResumeStepper(ctx, s, set, answers)
}

// NewServer wraps a session manager as an http.Handler serving the
// docs/API.md wire protocol.
func NewServer(mg *ServerManager) *Server { return server.New(mg) }

// NewServerManager builds a session manager over named scenarios; a
// nil *Obs disables the muse_server_* metrics.
func NewServerManager(scenarios map[string]*ServerScenario, o *Obs) *ServerManager {
	return server.NewManager(scenarios, o)
}

// BuiltinScenarios returns the paper's built-in server scenarios:
// "fig1" (grouping design) and "fig4" (disambiguation).
func BuiltinScenarios() map[string]*ServerScenario { return server.Builtin() }

// ScenarioFromDocument builds a server scenario from a parsed Muse
// document: the src→tgt mapping set designed over the named instance.
func ScenarioFromDocument(doc *Document, src, tgt, instName string) (*ServerScenario, error) {
	return server.FromDocument(doc, src, tgt, instName)
}

// --- observability ---

type (
	// Obs bundles a metrics Registry and a span Tracer; the chase, the
	// query engine and both wizards accept one. A nil *Obs disables all
	// instrumentation at the cost of one branch per touch point.
	Obs = obs.Obs
	// Registry holds named atomic counters, gauges and histograms with
	// a Prometheus-style text exposition (WriteText).
	Registry = obs.Registry
	// Tracer records lightweight spans into a bounded ring and an
	// optional JSONL sink.
	Tracer = obs.Tracer
)

// NewObs returns an Obs with a fresh registry and a tracer with the
// default ring capacity.
func NewObs() *Obs { return obs.New() }

// --- scripted designers (oracles) ---

type (
	// GroupingOracle is a scripted designer with a desired grouping
	// function in mind.
	GroupingOracle = designer.GroupingOracle
	// ChoiceOracle is a scripted designer with fixed Muse-D selections.
	ChoiceOracle = designer.ChoiceOracle
	// Strategy is one of the paper's grouping families G1, G2, G3.
	Strategy = designer.Strategy
)

// The canonical grouping strategies of Sec. VI.
const (
	G1 = designer.G1
	G2 = designer.G2
	G3 = designer.G3
)

// NewGroupingOracle scripts a designer desiring the given arguments
// for one grouping function.
func NewGroupingOracle(fn string, args []Expr) *GroupingOracle {
	return designer.NewGroupingOracle(fn, args)
}

// StrategyOracle scripts a designer desiring strategy s for every
// grouping function of m.
func StrategyOracle(s Strategy, m *Mapping) (*GroupingOracle, error) {
	return designer.StrategyOracle(s, m)
}

// --- text format ---

type (
	// Document is a parsed Muse text document.
	Document = parser.Document
)

// Parse parses the Muse document syntax: schemas, constraints,
// correspondences, mappings, instances.
func Parse(src string) (*Document, error) { return parser.Parse(src) }

// Formatters render objects in the document syntax.
var (
	FormatSchema   = parser.FormatSchema
	FormatMapping  = parser.FormatMapping
	FormatInstance = parser.FormatInstance
	FormatDocument = parser.FormatDocument
)

// --- executable transformations ---

// GenerateSQL compiles an unambiguous relational-source mapping into
// INSERT ... SELECT statements over the shredded target tables.
func GenerateSQL(m *Mapping) (string, error) { return codegen.SQL(m) }

// GenerateDDL emits CREATE TABLE statements for the shredded form of
// a target schema.
func GenerateDDL(cat *Catalog) string { return codegen.DDL(cat) }

// GenerateScript emits the DDL plus the SQL of every mapping of a set.
func GenerateScript(set *MappingSet) (string, error) { return codegen.Script(set) }

// --- external data formats ---

// LoadCSV reads comma-separated rows into a top-level set (header=true
// maps columns by the first row).
func LoadCSV(in *Instance, setPath string, r io.Reader, header bool) error {
	return load.CSV(in, setPath, r, header)
}

// WriteCSV writes a top-level set as CSV with a header row.
func WriteCSV(in *Instance, setPath string, w io.Writer) error {
	return load.WriteCSV(in, setPath, w)
}

// LoadXML parses an XML document shaped like the schema into an
// instance.
func LoadXML(cat *Catalog, r io.Reader) (*Instance, error) { return load.XML(cat, r) }

// WriteXML renders an instance as an XML document.
func WriteXML(in *Instance, w io.Writer) error { return load.WriteXML(in, w) }
