package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestNewIDShape(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("NewID() = %q, want 16 chars", id)
		}
		if !ValidID(id) {
			t.Fatalf("NewID() produced invalid ID %q", id)
		}
		if seen[id] {
			t.Fatalf("NewID() repeated %q within 100 draws", id)
		}
		seen[id] = true
	}
}

func TestValidID(t *testing.T) {
	for _, ok := range []string{"a", "abc123", "A-b_c.9", strings.Repeat("x", 64)} {
		if !ValidID(ok) {
			t.Errorf("ValidID(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", " ", "a b", "a/b", "a\nb", "ümlaut", "a{b}", strings.Repeat("x", 65), "id\x00"} {
		if ValidID(bad) {
			t.Errorf("ValidID(%q) = true, want false", bad)
		}
	}
}

func TestFromHeader(t *testing.T) {
	if id, ok := FromHeader("  abc-123  "); !ok || id != "abc-123" {
		t.Fatalf("FromHeader trimmed = (%q, %v), want (abc-123, true)", id, ok)
	}
	for _, bad := range []string{"", "   ", "a b", strings.Repeat("x", 65)} {
		if id, ok := FromHeader(bad); ok || id != "" {
			t.Fatalf("FromHeader(%q) = (%q, %v), want rejection", bad, id, ok)
		}
	}
}

func TestItemID(t *testing.T) {
	id := ItemID("base", 3)
	if id != "base.3" {
		t.Fatalf("ItemID = %q, want base.3", id)
	}
	if !ValidID(id) {
		t.Fatalf("ItemID result %q is not a valid ID", id)
	}
}

func TestSamplerEdges(t *testing.T) {
	if s := NewSampler(0); s != nil {
		t.Fatal("rate 0 should return a nil (never) sampler")
	}
	if s := NewSampler(-1); s.Sample("x") {
		t.Fatal("negative rate sampled")
	}
	if !NewSampler(1).Sample("anything") {
		t.Fatal("rate 1 must always sample")
	}
	if !NewSampler(2).Sample("anything") {
		t.Fatal("rate > 1 must always sample")
	}
	var nilS *Sampler
	if nilS.Sample("x") {
		t.Fatal("nil sampler sampled")
	}
}

func TestSamplerDecide(t *testing.T) {
	var off *Sampler
	if id, traced := off.Decide("client-id"); id != "" || traced {
		t.Fatalf("nil sampler Decide = (%q, %v), want no ID and untraced", id, traced)
	}
	// A valid client header is always traced, even at a tiny rate.
	s := NewSampler(1e-12)
	if id, traced := s.Decide("  client-id  "); id != "client-id" || !traced {
		t.Fatalf("valid header Decide = (%q, %v), want (client-id, true)", id, traced)
	}
	// An invalid (or absent) header gets a minted ID whose fate is the
	// sampler's deterministic decision for that ID.
	for _, hdr := range []string{"", "bad id", strings.Repeat("x", 500)} {
		id, traced := NewSampler(1).Decide(hdr)
		if !ValidID(id) || id == strings.TrimSpace(hdr) || !traced {
			t.Fatalf("Decide(%q) at rate 1 = (%q, %v), want a minted, traced ID", hdr, id, traced)
		}
		id, traced = s.Decide(hdr)
		if !ValidID(id) || traced != s.Sample(id) {
			t.Fatalf("Decide(%q) = (%q, %v), want a minted ID sampled by rate", hdr, id, traced)
		}
	}
}

func TestSamplerDeterministic(t *testing.T) {
	s := NewSampler(0.5)
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("trace-%d", i)
		first := s.Sample(id)
		for rep := 0; rep < 5; rep++ {
			if s.Sample(id) != first {
				t.Fatalf("sampling decision for %q not deterministic", id)
			}
		}
		// A fresh sampler with the same rate must agree: the decision is
		// a pure function of (rate, id), stable across restarts.
		if NewSampler(0.5).Sample(id) != first {
			t.Fatalf("decision for %q differs across sampler instances", id)
		}
	}
}

func TestSamplerRate(t *testing.T) {
	const n = 20000
	for _, rate := range []float64{0.1, 0.5, 0.9} {
		s := NewSampler(rate)
		kept := 0
		for i := 0; i < n; i++ {
			if s.Sample(fmt.Sprintf("id-%d", i)) {
				kept++
			}
		}
		got := float64(kept) / n
		if got < rate-0.03 || got > rate+0.03 {
			t.Errorf("rate %v sampled %v of %d IDs", rate, got, n)
		}
	}
}

func TestStoreEviction(t *testing.T) {
	st := NewStore(2)
	add := func(id string) *Trace {
		tr := &Trace{ID: id, Root: NewSpan("verdict", time.Unix(0, 1), time.Unix(0, 2))}
		st.Add(tr)
		return tr
	}
	a, b := add("a"), add("b")
	if st.Get("a") != a || st.Get("b") != b {
		t.Fatal("store lost traces before capacity")
	}
	c := add("c") // evicts a
	if st.Get("a") != nil {
		t.Fatal("oldest trace not evicted")
	}
	if st.Get("b") != b || st.Get("c") != c {
		t.Fatal("eviction removed the wrong trace")
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}

	// Re-adding an ID must not let a later eviction of the stale copy
	// delete the fresh one from the index.
	b2 := add("b") // ring: [c, b2]; evicted b (same ID, older pointer)
	if st.Get("b") != b2 {
		t.Fatal("re-added ID not the latest copy")
	}
	add("d") // evicts c
	add("e") // evicts b2 — now "b" should really be gone
	if st.Get("b") != nil {
		t.Fatal("evicted re-added ID still resolvable")
	}
}

func TestStoreNilAndDisabled(t *testing.T) {
	if NewStore(0) != nil || NewStore(-5) != nil {
		t.Fatal("non-positive size should disable the store")
	}
	var st *Store
	st.Add(&Trace{ID: "x"})
	if st.Get("x") != nil || st.Len() != 0 {
		t.Fatal("nil store must no-op")
	}
}

func TestSpanTree(t *testing.T) {
	t0 := time.Unix(100, 0)
	root := NewSpan("verdict", t0, t0.Add(10*time.Millisecond))
	root.SetAttr("label", 3)
	child := root.AddChild(NewSpan("score", t0.Add(time.Millisecond), t0.Add(9*time.Millisecond)))
	child.SetAttr("d_0", 1.5)
	if len(root.Children) != 1 || root.Children[0].Name != "score" {
		t.Fatalf("span tree wrong: %+v", root)
	}
	if root.DurNs != int64(10*time.Millisecond) {
		t.Fatalf("root DurNs = %d", root.DurNs)
	}
	if root.Attrs["label"] != 3 || child.Attrs["d_0"] != 1.5 {
		t.Fatal("attrs lost")
	}
	// A span whose end precedes its start (wall-clock jump on times
	// without monotonic readings) clamps to zero duration.
	neg := NewSpan("x", t0.Add(time.Hour), t0)
	if neg.DurNs != 0 {
		t.Fatalf("negative duration not clamped: %d", neg.DurNs)
	}
}
