// Package core implements the Muse wizards — the paper's contribution:
//
//   - Muse-G (Sec. III): designing the grouping function of every
//     nested target set from the designer's answers to a short
//     sequence of two-scenario questions over small examples, with the
//     key- and FD-based question reductions of Sec. III-B/III-C, the
//     incremental redesign ("group more" / "group less"), and the
//     instance-only mode.
//   - Muse-D (Sec. IV): disambiguating a mapping with or-predicates by
//     showing one compact target instance with per-element choice
//     lists, and translating the designer's picks back into an
//     unambiguous mapping.
//
// Both wizards draw examples from a real source instance when it can
// differentiate the alternatives, and construct synthetic canonical
// examples otherwise.
//
// The wizards keep each dialog as explicit state — the mappings still
// ambiguous, the grouping function under design, its candidates still
// to probe — which advances one question per submitted answer. Two
// calling conventions drive that one state. Session.Run (and
// DesignMapping, DesignSK, Disambiguate, DisambiguateAll) is the
// callback form: a loop that asks the designer interfaces and submits
// their answers. Stepper serves the same state one call at a time for
// servers (internal/server exposes it over HTTP); between calls
// nothing runs, so a parked dialog holds no goroutine.
//
// Invariants:
//
//   - Dialogs are deterministic: the same scenario and answer sequence
//     always produce the same questions and the same refined mappings,
//     whether driven through Session.Run or a Stepper.
//   - Every example shown satisfies the source constraints (SrcDeps);
//     the wizards verify this before posing a question.
//   - Wizard work is bounded by the context of the call doing it (a
//     Stepper's NewStepper or Answer; Close cancels it and the
//     prefetches that outlive it): once cancelled, retrieval and chases
//     abort promptly and the dialog fails with the context's error
//     (cancellation is session-fatal by design — dialogs are short and
//     cheap to replay).
package core
