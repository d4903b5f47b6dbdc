package obs

import "fmt"

// EventKind classifies a cache event. The simulator emits exactly one Hit
// or Miss record per access, followed by Fill/Evict/Bypass records as the
// access resolves; Decision records come from the policy layer
// (policy.Traced) and carry the features of the line the policy chose to
// evict, before the fill overwrites them.
type EventKind uint8

const (
	EvHit EventKind = iota
	EvMiss
	EvFill
	EvEvict
	EvBypass
	EvDecision
	numEventKinds
)

// eventKindNames are the JSON wire names, index-aligned with the constants.
var eventKindNames = [numEventKinds]string{"hit", "miss", "fill", "evict", "bypass", "decision"}

// String returns the wire name.
func (k EventKind) String() string { return enumString(k, eventKindNames[:], "kind") }

// MarshalJSON encodes the kind as its string name so JSONL traces are
// self-describing.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return marshalEnum(k, eventKindNames[:], "event kind")
}

// UnmarshalJSON decodes a kind name written by MarshalJSON.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	return unmarshalEnum(k, eventKindNames[:], b, "event kind")
}

// enumString returns e's wire name, or prefix(e) outside the name table.
func enumString[E ~uint8](e E, names []string, prefix string) string {
	if int(e) < len(names) {
		return names[e]
	}
	return fmt.Sprintf("%s(%d)", prefix, uint8(e))
}

// marshalEnum encodes e as its wire name, a JSON string.
func marshalEnum[E ~uint8](e E, names []string, what string) ([]byte, error) {
	if int(e) >= len(names) {
		return nil, fmt.Errorf("obs: unknown %s %d", what, uint8(e))
	}
	return []byte(`"` + names[e] + `"`), nil
}

// unmarshalEnum decodes a wire name written by marshalEnum into *e.
func unmarshalEnum[E ~uint8](e *E, names []string, b []byte, what string) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("obs: %s must be a JSON string, got %s", what, b)
	}
	name := string(b[1 : len(b)-1])
	for i, n := range names {
		if n == name {
			*e = E(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown %s %q", what, name)
}

// CacheEvent is one structured record on the cache-event stream. Victim*
// fields are populated only on Evict and Decision records; they are the
// Table II features of the evicted line as it was at eviction time — the
// raw material of the paper's Figure 5–7 analyses.
//
// The struct is flat and std-only on purpose: sinks, external decoders, and
// the fuzz harness all round-trip it through encoding/json.
type CacheEvent struct {
	Kind   EventKind `json:"kind"`
	Seq    uint64    `json:"seq"`
	PC     uint64    `json:"pc,omitempty"`
	Addr   uint64    `json:"addr"`
	Type   uint8     `json:"type"` // trace.AccessType value
	Set    uint32    `json:"set"`
	Way    int       `json:"way"`
	Policy string    `json:"policy,omitempty"`

	VictimBlock    uint64 `json:"victim_block,omitempty"`
	VictimDirty    bool   `json:"victim_dirty,omitempty"`
	VictimAge      uint32 `json:"victim_age,omitempty"`    // set accesses since insertion
	VictimPreuse   uint32 `json:"victim_preuse,omitempty"` // set accesses between its last two accesses
	VictimHits     uint32 `json:"victim_hits,omitempty"`   // hits since insertion
	VictimRecency  uint8  `json:"victim_recency,omitempty"`
	VictimLastType uint8  `json:"victim_last_type,omitempty"`
}

// Hook observes cache events. Implementations must treat e as borrowed:
// the emitter reuses the event buffer, so a hook that retains the record
// must copy it (Ring and JSONL both do).
type Hook interface {
	OnCacheEvent(e *CacheEvent)
}
