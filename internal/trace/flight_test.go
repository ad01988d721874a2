package trace

import (
	"sync"
	"testing"
)

// TestFlightWraparoundExactlyN fills the ring to exactly capacity: all
// N entries must be retained, newest first.
func TestFlightWraparoundExactlyN(t *testing.T) {
	const n = 4
	f := NewFlight(n)
	for i := 0; i < n; i++ {
		f.Record(Entry{Label: i, Outcome: OutcomeOK})
	}
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d", f.Len(), n)
	}
	got := f.Snapshot(Filter{})
	if len(got) != n {
		t.Fatalf("snapshot has %d entries, want %d", len(got), n)
	}
	for i, e := range got {
		if want := n - 1 - i; e.Label != want {
			t.Fatalf("entry %d label = %d, want %d (newest first)", i, e.Label, want)
		}
		if e.Seq != uint64(n-i) {
			t.Fatalf("entry %d seq = %d, want %d", i, e.Seq, n-i)
		}
	}
}

// TestFlightWraparoundNPlusOne pushes one past capacity: the oldest
// entry must be overwritten, everything else retained in order.
func TestFlightWraparoundNPlusOne(t *testing.T) {
	const n = 4
	f := NewFlight(n)
	for i := 0; i <= n; i++ { // n+1 records
		f.Record(Entry{Label: i, Outcome: OutcomeOK})
	}
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d after wrap", f.Len(), n)
	}
	got := f.Snapshot(Filter{})
	if len(got) != n {
		t.Fatalf("snapshot has %d entries, want %d", len(got), n)
	}
	for i, e := range got {
		if want := n - i; e.Label != want {
			t.Fatalf("entry %d label = %d, want %d (label 0 must be evicted)", i, e.Label, want)
		}
	}
	// Entry with label 0 (seq 1) must be gone.
	for _, e := range got {
		if e.Label == 0 {
			t.Fatal("oldest entry survived the wrap")
		}
	}
}

func TestFlightFilters(t *testing.T) {
	f := NewFlight(16)
	f.Record(Entry{Outcome: OutcomeOK, Valid: true, Label: 1})
	f.Record(Entry{Outcome: OutcomeOK, Valid: false, Label: 2})
	f.Record(Entry{Outcome: OutcomeQuarantined, Valid: false, Label: 2})
	f.Record(Entry{Outcome: OutcomeShed})
	f.Record(Entry{Outcome: OutcomeDeadline})

	fv := false
	got := f.Snapshot(Filter{Valid: &fv})
	if len(got) != 2 {
		t.Fatalf("valid=false matched %d entries, want 2 (shed/deadline are not verdicts)", len(got))
	}
	for _, e := range got {
		if e.Valid || !verdictBearing(e.Outcome) {
			t.Fatalf("valid=false matched %+v", e)
		}
	}

	tv := true
	if got := f.Snapshot(Filter{Valid: &tv}); len(got) != 1 || got[0].Label != 1 {
		t.Fatalf("valid=true matched %+v", got)
	}

	cls := 2
	if got := f.Snapshot(Filter{Class: &cls}); len(got) != 2 {
		t.Fatalf("class=2 matched %d, want 2", len(got))
	}
	// Class filter must not match a shed entry whose zero-valued Label
	// happens to equal the class.
	zero := 0
	if got := f.Snapshot(Filter{Class: &zero}); len(got) != 0 {
		t.Fatalf("class=0 matched %d shed/deadline entries, want 0", len(got))
	}

	if got := f.Snapshot(Filter{Outcome: OutcomeShed}); len(got) != 1 || got[0].Outcome != OutcomeShed {
		t.Fatalf("outcome=shed matched %+v", got)
	}

	if got := f.Snapshot(Filter{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit=2 returned %d", len(got))
	}
	// Limit applies after filtering, newest-first.
	if got := f.Snapshot(Filter{Valid: &fv, Limit: 1}); len(got) != 1 || got[0].Outcome != OutcomeQuarantined {
		t.Fatalf("filtered limit returned %+v", got)
	}
}

// TestFlightFilterCombinations exercises every pair-and-triple of the
// triage dimensions (valid, class, outcome, limit) against one
// population, including contradictory combinations that must match
// nothing and a ring smaller than the traffic so filters run over a
// wrapped buffer. Expected matches are identified by Seq: entries are
// recorded in order, so seq == record index + 1.
func TestFlightFilterCombinations(t *testing.T) {
	// Ring of 8 sees 12 records: seqs 1-4 are evicted, 5-12 remain.
	f := NewFlight(8)
	population := []Entry{
		{Outcome: OutcomeOK, Valid: true, Label: 1},           // seq 1 (evicted)
		{Outcome: OutcomeShed},                                // seq 2 (evicted)
		{Outcome: OutcomeOK, Valid: false, Label: 2},          // seq 3 (evicted)
		{Outcome: OutcomeDeadline},                            // seq 4 (evicted)
		{Outcome: OutcomeOK, Valid: true, Label: 1},           // seq 5
		{Outcome: OutcomeOK, Valid: true, Label: 2},           // seq 6
		{Outcome: OutcomeOK, Valid: false, Label: 2},          // seq 7
		{Outcome: OutcomeQuarantined, Valid: false, Label: 1}, // seq 8
		{Outcome: OutcomeShed},                                // seq 9
		{Outcome: OutcomeDeadline},                            // seq 10
		{Outcome: OutcomeError},                               // seq 11
		{Outcome: OutcomeOK, Valid: false, Label: 1},          // seq 12
	}
	for _, e := range population {
		f.Record(e)
	}

	vTrue, vFalse := true, false
	cls1, cls2, cls9 := 1, 2, 9
	cases := []struct {
		name     string
		filter   Filter
		wantSeqs []uint64 // newest first
	}{
		{"all", Filter{}, []uint64{12, 11, 10, 9, 8, 7, 6, 5}},
		{"valid+class", Filter{Valid: &vTrue, Class: &cls1}, []uint64{5}},
		{"invalid+class", Filter{Valid: &vFalse, Class: &cls1}, []uint64{12, 8}},
		{"invalid+class+limit", Filter{Valid: &vFalse, Class: &cls1, Limit: 1}, []uint64{12}},
		{"valid+outcome", Filter{Valid: &vFalse, Outcome: OutcomeQuarantined}, []uint64{8}},
		{"class+outcome", Filter{Class: &cls2, Outcome: OutcomeOK}, []uint64{7, 6}},
		{"valid+class+outcome", Filter{Valid: &vFalse, Class: &cls2, Outcome: OutcomeOK}, []uint64{7}},
		{"limit over match count", Filter{Class: &cls2, Limit: 99}, []uint64{7, 6}},
		{"limit zero means all", Filter{Outcome: OutcomeOK, Limit: 0}, []uint64{12, 7, 6, 5}},
		{"negative limit means all", Filter{Outcome: OutcomeOK, Limit: -3}, []uint64{12, 7, 6, 5}},
		// Contradictory combinations: individually each dimension
		// matches something, together they must match nothing.
		{"valid=true + outcome=shed", Filter{Valid: &vTrue, Outcome: OutcomeShed}, nil},
		{"valid=true + outcome=error", Filter{Valid: &vTrue, Outcome: OutcomeError}, nil},
		{"class + outcome=deadline", Filter{Class: &cls1, Outcome: OutcomeDeadline}, nil},
		{"valid=true + class=2 + outcome=quarantined", Filter{Valid: &vTrue, Class: &cls2, Outcome: OutcomeQuarantined}, nil},
		{"unknown class", Filter{Class: &cls9}, nil},
		{"unknown outcome", Filter{Outcome: "nope"}, nil},
		// Matches that only existed in evicted slots must stay gone.
		{"evicted-only combination", Filter{Valid: &vFalse, Class: &cls2, Outcome: OutcomeOK, Limit: 5}, []uint64{7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := f.Snapshot(tc.filter)
			if len(got) != len(tc.wantSeqs) {
				t.Fatalf("matched %d entries %+v, want seqs %v", len(got), got, tc.wantSeqs)
			}
			for i, e := range got {
				if e.Seq != tc.wantSeqs[i] {
					t.Errorf("entry %d seq = %d, want %d", i, e.Seq, tc.wantSeqs[i])
				}
			}
		})
	}
}

func TestFlightNilAndDisabled(t *testing.T) {
	if NewFlight(0) != nil || NewFlight(-1) != nil {
		t.Fatal("non-positive size should disable the recorder")
	}
	var f *Flight
	f.Record(Entry{})
	if f.Len() != 0 || f.Snapshot(Filter{}) != nil {
		t.Fatal("nil flight must no-op")
	}
}

func TestFlightConcurrentRecordSnapshot(t *testing.T) {
	f := NewFlight(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Record(Entry{Label: g, Outcome: OutcomeOK})
				_ = f.Snapshot(Filter{Limit: 3})
			}
		}(g)
	}
	wg.Wait()
	if f.Len() != 8 {
		t.Fatalf("Len = %d, want 8", f.Len())
	}
	// Sequence numbers must be unique and the newest snapshot ordered.
	got := f.Snapshot(Filter{})
	for i := 1; i < len(got); i++ {
		if got[i].Seq >= got[i-1].Seq {
			t.Fatalf("snapshot not newest-first: seq %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}
}

// TestFlightSnapshotOwnsRows: Record copies an entry's Layers and
// PerLayer into storage its slot owns, and Snapshot copies them out, so
// a caller reusing its row after Record, the ring wrapping, or a write
// into a snapshot's row changes no other snapshot's values. An entry
// without rows recorded over a slot that had some has none.
func TestFlightSnapshotOwnsRows(t *testing.T) {
	const n, width = 4, 3
	f := NewFlight(n)
	row := make([]float64, width)
	layers := []int{1, 3, 5}
	record := func(k int) {
		for j := range row {
			row[j] = float64(10*k + j)
		}
		f.Record(Entry{Outcome: OutcomeOK, Label: k, Layers: layers, PerLayer: row})
	}
	check := func(what string, es []Entry) {
		t.Helper()
		if len(es) != n {
			t.Fatalf("%s: %d entries, want %d", what, len(es), n)
		}
		for _, e := range es {
			if len(e.PerLayer) != width || len(e.Layers) != width {
				t.Fatalf("%s: entry %d carries %d layers and %d values, want %d", what, e.Label, len(e.Layers), len(e.PerLayer), width)
			}
			for j, v := range e.PerLayer {
				if want := float64(10*e.Label + j); v != want || e.Layers[j] != layers[j] {
					t.Fatalf("%s: entry %d value %d = %v at layer %d, want %v at layer %d", what, e.Label, j, v, e.Layers[j], want, layers[j])
				}
			}
		}
	}
	for k := 0; k < n; k++ {
		record(k)
	}
	snap := f.Snapshot(Filter{})
	check("ring after the caller reused its row", snap)
	for k := n; k < 3*n; k++ {
		record(k)
	}
	check("snapshot after the ring wrapped twice", snap)
	check("ring after wrapping", f.Snapshot(Filter{}))
	snap[0].PerLayer[0], snap[0].Layers[0] = -1, -1
	check("ring after a snapshot's row was written", f.Snapshot(Filter{}))

	f.Record(Entry{Outcome: OutcomeShed})
	if e := f.Snapshot(Filter{Limit: 1})[0]; e.Layers != nil || e.PerLayer != nil {
		t.Fatalf("a shed entry recorded over a verdict's slot carries layers %v and values %v", e.Layers, e.PerLayer)
	}
}
