// Package server hosts Muse wizard sessions over HTTP/JSON, turning
// the interactive dialogs of Sec. III (Muse-G) and Sec. IV (Muse-D)
// into a small REST-ish API so any client — a browser UI, a script, a
// test harness — can drive mapping design without linking the Go
// packages.
//
// The package builds on core.Stepper, which serves the wizards' dialog
// state one question per request: each request computes the next
// question on its own goroutine, and a parked session is plain data. A
// Manager owns the live sessions: each is addressed by an unguessable
// token, serialized by a per-session mutex, bounded in count (least
// recently used idle sessions are evicted under pressure) and in age
// (idle sessions past the TTL are swept). Distinct sessions of the
// same scenario run concurrently and share one query.IndexStore, so
// indexes built for one designer's retrievals serve every other.
//
// Sessions are durable through a pluggable SessionStore: every
// accepted answer is persisted before it is acknowledged, and a token
// that is not live is rebuilt on demand by replaying its stored
// answers through the deterministic dialog path (core.ResumeStepper).
// MemStore keeps the answer log in memory (resume survives eviction);
// the walstore subpackage keeps it in per-session write-ahead logs on
// disk (resume survives crashes and restarts). Stored state that
// cannot be recovered reports ErrGone rather than guessing.
//
// Invariants (DESIGN.md §9 serving, §12 durability — normative):
//
//   - One pending question per session; answers are validated against
//     it and invalid answers never advance the dialog.
//   - Wizard work runs under the context of the HTTP request that
//     triggered it; a cancelled request aborts the work promptly and
//     fails the session terminally (dialogs are cheap to replay).
//   - Busy sessions (a request holds the per-session lock) are never
//     evicted; a full manager whose sessions are all busy refuses new
//     sessions with 503 rather than blocking.
//   - The final mappings of a session are byte-identical to what the
//     in-process core.Session.Run produces for the same answers.
//   - A resumed session is indistinguishable on the wire from one that
//     never left memory: byte-identical questions and results, and
//     concurrent resumes of one token obey the ordinary busy contract.
package server
