package policy

import (
	"repro/internal/cache"
	"repro/internal/obs"
)

// Traced is the policy layer's hook point: it wraps any Policy and streams
// one obs.EvDecision record per victim selection, carrying the Table II
// features of the chosen line as the policy saw them — i.e. *before* the
// fill overwrites the way — which is the record the paper's "why did the
// cache evict that" analyses (Figures 5–7) are built from. The wrapper is
// behaviour-transparent: it delegates every decision unchanged and reports
// the inner policy's Name, so traced and untraced runs produce identical
// simulation results.
type Traced struct {
	inner Policy
	hook  obs.Hook
	ev    obs.CacheEvent // scratch, reused per decision
}

// NewTraced wraps p so its victim decisions stream to h. A nil h falls
// back to obs.GlobalHook at decision time being absent, i.e. pure
// delegation.
func NewTraced(p Policy, h obs.Hook) *Traced {
	return &Traced{inner: p, hook: h}
}

// Name implements Policy; it reports the inner policy's name so tables and
// logs are unchanged by tracing.
func (t *Traced) Name() string { return t.inner.Name() }

// Init implements Policy.
func (t *Traced) Init(cfg Config) { t.inner.Init(cfg) }

// Victim implements Policy: delegate, then emit a decision record with the
// victim line's features (skipped for Bypass decisions, which evict nothing).
func (t *Traced) Victim(ctx AccessCtx, set *cache.Set) int {
	way := t.inner.Victim(ctx, set)
	if t.hook != nil && way != Bypass && way >= 0 && way < len(set.Lines) {
		ln := &set.Lines[way]
		t.ev = obs.CacheEvent{
			Kind:           obs.EvDecision,
			Seq:            ctx.Seq,
			PC:             ctx.PC,
			Addr:           ctx.Addr,
			Type:           uint8(ctx.Type),
			Set:            ctx.SetIdx,
			Way:            way,
			Policy:         t.inner.Name(),
			VictimBlock:    ln.Block,
			VictimDirty:    ln.Dirty,
			VictimAge:      set.AgeSinceInsert(ln),
			VictimPreuse:   ln.Preuse,
			VictimHits:     ln.HitsSinceInsert,
			VictimRecency:  uint8(set.Recency(ln)),
			VictimLastType: uint8(ln.LastAccessType),
		}
		t.hook.OnCacheEvent(&t.ev)
	}
	return way
}

// Update implements Policy.
func (t *Traced) Update(ctx AccessCtx, set *cache.Set, way int, hit bool) {
	t.inner.Update(ctx, set, way, hit)
}

var _ Policy = (*Traced)(nil)
