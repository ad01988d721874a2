package trace

import "sync"

// Outcome classifies how a request left the serving path.
const (
	OutcomeOK          = "ok"          // scored, verdict returned
	OutcomeQuarantined = "quarantined" // scored but hit non-finite numerics
	OutcomeShed        = "shed"        // rejected 429 at admission
	OutcomeDeadline    = "deadline"    // 504 before a verdict arrived
	OutcomeError       = "error"       // scoring returned an error
)

// Entry is one flight-recorder record: everything needed to answer
// "what did the detector decide and which layer drove it" without
// replaying traffic. Layers/PerLayer carry the per-tap discrepancies
// d_i for verdict-bearing outcomes; they are nil for shed/deadline
// entries, which never reached scoring.
type Entry struct {
	Seq        uint64    `json:"seq"`
	TimeNs     int64     `json:"time_ns"`
	TraceID    string    `json:"trace_id,omitempty"`
	Endpoint   string    `json:"endpoint"`
	Outcome    string    `json:"outcome"`
	Label      int       `json:"label"`
	Confidence float64   `json:"confidence"`
	Joint      float64   `json:"joint"`
	Valid      bool      `json:"valid"`
	Layers     []int     `json:"layers,omitempty"`
	PerLayer   []float64 `json:"per_layer,omitempty"`
	LatencySec float64   `json:"latency_sec"`
}

// Flight is a bounded ring buffer of the last N verdicts. Recording is
// a short critical section (one slot write); snapshots copy out under
// the same lock. Each slot owns the storage of its entry's Layers and
// PerLayer and reuses it when it is overwritten, so a warm recorder
// allocates nothing and a caller may reuse its row as soon as Record
// returns. Nil-safe throughout.
type Flight struct {
	mu   sync.Mutex
	ring []Entry
	next int
	n    int // entries recorded so far, saturating at len(ring)
	seq  uint64
}

// NewFlight returns a recorder keeping the last size entries, or nil
// when size <= 0 (recorder disabled).
func NewFlight(size int) *Flight {
	if size <= 0 {
		return nil
	}
	return &Flight{ring: make([]Entry, size)}
}

// Record stores one entry, overwriting the oldest when full, and
// copies its Layers and PerLayer into the slot's own storage. The
// sequence number is assigned here, monotonically.
func (f *Flight) Record(e Entry) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	e.Seq = f.seq
	slot := &f.ring[f.next]
	e.Layers = append(slot.Layers[:0], e.Layers...)
	e.PerLayer = append(slot.PerLayer[:0], e.PerLayer...)
	*slot = e
	f.next = (f.next + 1) % len(f.ring)
	if f.n < len(f.ring) {
		f.n++
	}
}

// Len returns the number of entries currently held.
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Filter selects flight entries. Zero value matches everything.
type Filter struct {
	Valid   *bool  // match entries whose Valid equals this (verdict-bearing outcomes only)
	Class   *int   // match entries whose Label equals this
	Outcome string // match entries with this outcome
	Limit   int    // max entries returned; <= 0 means all
}

// verdictBearing reports whether the outcome carried an actual verdict
// (so Valid/Label/PerLayer are meaningful).
func verdictBearing(outcome string) bool {
	return outcome == OutcomeOK || outcome == OutcomeQuarantined
}

// Snapshot returns matching entries newest-first. Each entry's Layers
// and PerLayer are its own copies (nil when empty), so they keep their
// values after the ring overwrites the slots they came from.
func (f *Flight) Snapshot(fl Filter) []Entry {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Entry, 0, f.n)
	for i := 0; i < f.n; i++ {
		// Walk backwards from the most recently written slot.
		idx := (f.next - 1 - i + len(f.ring)*2) % len(f.ring)
		e := f.ring[idx]
		if fl.Valid != nil && (!verdictBearing(e.Outcome) || e.Valid != *fl.Valid) {
			continue
		}
		if fl.Class != nil && (!verdictBearing(e.Outcome) || e.Label != *fl.Class) {
			continue
		}
		if fl.Outcome != "" && e.Outcome != fl.Outcome {
			continue
		}
		e.Layers, e.PerLayer = Own(e.Layers), Own(e.PerLayer)
		out = append(out, e)
		if fl.Limit > 0 && len(out) >= fl.Limit {
			break
		}
	}
	return out
}

// Own returns a copy of xs that shares no storage with it, or nil when
// xs is empty: what a ring snapshot hands out for a slot's reused row.
func Own[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	return append([]T(nil), xs...)
}
