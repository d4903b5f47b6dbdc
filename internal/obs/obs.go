// Package obs is the repository's observability layer: a typed metrics
// registry, hookable structured event tracing, run-manifest telemetry, and
// a live HTTP introspection endpoint. It exists so long training runs and
// multi-hour experiment sweeps can be *observed* while in flight — the
// paper's own insight-mining methodology (Figures 3–7) is built on watching
// what the agent does, and this package extends that stance to the whole
// system.
//
// The design follows akita's hookable/tracing split: simulated components
// (cachesim.Simulator, the policy layer, rl.Trainer, the sched pool) carry
// optional hook points that are nil by default; tracing and metrics are
// attached from the outside and cost nothing when absent. Two global knobs
// make wiring from cmd/ flags trivial:
//
//   - Enable() switches the process-wide metrics registry on. Components
//     resolve their counters at construction time via Metrics(), which
//     returns nil while disabled; every metric method is nil-safe, so the
//     disabled mode is a handful of predictable nil checks on the hot path
//     and preserves the PR-2 zero-allocation guarantee.
//   - SetGlobalHook attaches a cache-event hook that newly constructed
//     simulators pick up, so deeply nested experiment code streams events
//     without any plumbing changes.
//
// Every record stream — cache events, request spans, run manifests —
// travels through one generic set of parts: Sink[T] with its JSONL, Ring
// and Discard implementations, one spec parser (Open, the -obs-trace
// grammar of every CLI) and one reader (ReadJSONL). StartCLI wires a
// command's flags. The /metrics endpoint is a sorted plain-text dump.
// See README.md "Observability".
package obs

import (
	"sync/atomic"
)

// enabled gates the process-wide metrics registry. Off by default: the
// experiment and training hot paths must not pay for observability nobody
// asked for.
var enabled atomic.Bool

// Enable switches metrics collection on for components constructed from now
// on. Call it before building simulators/trainers (i.e. right after flag
// parsing).
func Enable() { enabled.Store(true) }

// Disable switches metrics collection off again (tests).
func Disable() { enabled.Store(false) }

// def is the process-wide registry. It always exists so the HTTP endpoint
// can serve it even when collection is disabled (it is then simply empty).
var def = NewRegistry()

// Default returns the process-wide registry unconditionally (for serving
// and tests).
func Default() *Registry { return def }

// Metrics returns the process-wide registry when observability is enabled,
// and nil otherwise. All Registry and metric methods are nil-safe, so
// components can resolve and update metrics unconditionally:
//
//	c := obs.Metrics().Counter("llc_hits") // nil when disabled
//	c.Inc()                                // no-op on nil
func Metrics() *Registry {
	if !enabled.Load() {
		return nil
	}
	return def
}

// globalHook holds the process-wide cache-event hook picked up by
// simulators at construction time, boxed so that an atomic.Value can hold
// a nil Hook.
var globalHook atomic.Value // hookBox

// hookBox wraps the interface so every Store has one concrete type.
type hookBox struct{ h Hook }

// SetGlobalHook installs (or, with nil, removes) the hook that newly
// constructed simulators attach. Existing simulators are unaffected.
func SetGlobalHook(h Hook) { globalHook.Store(hookBox{h}) }

// GlobalHook returns the installed global hook, or nil.
func GlobalHook() Hook {
	b, _ := globalHook.Load().(hookBox)
	return b.h
}
