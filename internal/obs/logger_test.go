package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"deepvalidation/internal/telemetry"
)

func boolPtr(b bool) *bool { return &b }
func intPtr(n int) *int    { return &n }

func TestNilLoggerIsInert(t *testing.T) {
	var l *Logger
	l.Emit(Event{Type: TypeRequest})
	if got := l.Snapshot(Filter{}); got != nil {
		t.Fatalf("nil logger snapshot = %v, want nil", got)
	}
	if l.Enabled(LevelError) {
		t.Fatal("nil logger reports Enabled")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("nil logger Close: %v", err)
	}
	if n := l.Dropped(TypeRequest); n != 0 {
		t.Fatalf("nil logger Dropped = %d", n)
	}
}

func TestEmitStampsSequenceAndTime(t *testing.T) {
	l := New(Config{})
	base := time.Unix(1700000000, 0)
	l.now = func() time.Time { return base }
	l.Emit(Event{Type: TypeReload, Msg: "first"})
	l.Emit(Event{Type: TypeReload, Msg: "second"})
	got := l.Snapshot(Filter{})
	if len(got) != 2 {
		t.Fatalf("snapshot has %d events, want 2", len(got))
	}
	// Newest first.
	if got[0].Msg != "second" || got[1].Msg != "first" {
		t.Fatalf("snapshot order = %q, %q", got[0].Msg, got[1].Msg)
	}
	if got[0].Seq != 2 || got[1].Seq != 1 {
		t.Fatalf("seq = %d, %d, want 2, 1", got[0].Seq, got[1].Seq)
	}
	if got[0].TimeNs != base.UnixNano() {
		t.Fatalf("TimeNs = %d, want %d", got[0].TimeNs, base.UnixNano())
	}
}

func TestMinLevelGate(t *testing.T) {
	l := New(Config{MinLevel: LevelWarn})
	l.Emit(Event{Type: TypeReload, Level: LevelInfo})
	l.Emit(Event{Type: TypeReload, Level: LevelDebug})
	l.Emit(Event{Type: TypeReload, Level: LevelWarn})
	l.Emit(Event{Type: TypeReload, Level: LevelError})
	if got := len(l.Snapshot(Filter{})); got != 2 {
		t.Fatalf("kept %d events, want 2 (warn+error)", got)
	}
	if l.Enabled(LevelInfo) {
		t.Fatal("Enabled(info) = true under warn minimum")
	}
	if !l.Enabled(LevelError) {
		t.Fatal("Enabled(error) = false under warn minimum")
	}
}

func TestRateCapPerType(t *testing.T) {
	reg := telemetry.New()
	l := New(Config{Rates: map[string]float64{TypeRequest: 2}, Registry: reg})
	base := time.Unix(1700000000, 0)
	now := base
	l.now = func() time.Time { return now }

	// Burst is 2x rate = 4 tokens; the 5th emit in the same instant drops.
	for i := 0; i < 6; i++ {
		l.Emit(Event{Type: TypeRequest})
	}
	if got := len(l.Snapshot(Filter{Type: TypeRequest})); got != 4 {
		t.Fatalf("kept %d request events, want 4 (burst)", got)
	}
	if d := l.Dropped(TypeRequest); d != 2 {
		t.Fatalf("Dropped = %d, want 2", d)
	}
	// Other types are unaffected by the request bucket.
	l.Emit(Event{Type: TypeReload})
	if got := len(l.Snapshot(Filter{Type: TypeReload})); got != 1 {
		t.Fatalf("reload event was rate-capped by the request bucket")
	}
	// Tokens refill with time: one second at 2/s admits 2 more.
	now = base.Add(time.Second)
	for i := 0; i < 3; i++ {
		l.Emit(Event{Type: TypeRequest})
	}
	if got := len(l.Snapshot(Filter{Type: TypeRequest})); got != 6 {
		t.Fatalf("kept %d request events after refill, want 6", got)
	}
	// Self-metrics count both sides.
	snap := reg.Snapshot()
	if snap.Counters[telemetry.Label(MetricEventsEmitted, "type", TypeRequest)] != 6 {
		t.Fatalf("emitted counter = %d, want 6", snap.Counters[telemetry.Label(MetricEventsEmitted, "type", TypeRequest)])
	}
	if snap.Counters[telemetry.Label(MetricEventsDropped, "type", TypeRequest)] != 3 {
		t.Fatalf("dropped counter = %d, want 3", snap.Counters[telemetry.Label(MetricEventsDropped, "type", TypeRequest)])
	}
}

func TestDefaultRequestRateCapOnly(t *testing.T) {
	l := New(Config{})
	fixed := time.Unix(1700000000, 0)
	l.now = func() time.Time { return fixed }
	for i := 0; i < 500; i++ {
		l.Emit(Event{Type: TypeRequest})
		l.Emit(Event{Type: TypeDriftAlarm})
	}
	// With the clock frozen, exactly the default burst (2x rate) of
	// request events is admitted; the rest are dropped.
	if got := l.Dropped(TypeRequest); got != 500-int64(2*DefaultRequestRate) {
		t.Fatalf("request drops = %d, want %d", got, 500-int64(2*DefaultRequestRate))
	}
	// Non-request types are unlimited by default.
	if got := l.Dropped(TypeDriftAlarm); got != 0 {
		t.Fatalf("drift drops = %d, want 0 (unlimited)", got)
	}
}

func TestRingWraparound(t *testing.T) {
	l := New(Config{Ring: 4})
	for i := 0; i < 10; i++ {
		l.Emit(Event{Type: TypeReload, Class: i})
	}
	got := l.Snapshot(Filter{})
	if len(got) != 4 {
		t.Fatalf("ring kept %d, want 4", len(got))
	}
	for i, e := range got {
		if want := 9 - i; e.Class != want {
			t.Fatalf("ring[%d].Class = %d, want %d", i, e.Class, want)
		}
	}
}

func TestSnapshotFilters(t *testing.T) {
	l := New(Config{Rates: map[string]float64{TypeRequest: 0}})
	l.Emit(Event{Type: TypeRequest, Outcome: "ok", Valid: true, Class: 1})
	l.Emit(Event{Type: TypeRequest, Outcome: "ok", Valid: false, Class: 1})
	l.Emit(Event{Type: TypeRequest, Outcome: "shed", Level: LevelWarn})
	l.Emit(Event{Type: TypeQuarantine, Level: LevelWarn, Valid: false, Class: 2})
	l.Emit(Event{Type: TypeSLOBreach, Level: LevelError, SLO: "availability"})

	cases := []struct {
		name string
		f    Filter
		want int
	}{
		{"all", Filter{}, 5},
		{"type", Filter{Type: TypeRequest}, 3},
		{"outcome", Filter{Outcome: "shed"}, 1},
		{"min level warn", Filter{MinLevel: LevelWarn}, 3},
		{"min level error", Filter{MinLevel: LevelError}, 1},
		{"valid true", Filter{Valid: boolPtr(true)}, 1},
		{"valid false skips non-verdict", Filter{Valid: boolPtr(false)}, 2},
		{"class", Filter{Class: intPtr(1)}, 2},
		{"class on non-verdict never matches", Filter{Class: intPtr(0), Type: TypeSLOBreach}, 0},
		{"limit", Filter{Limit: 2}, 2},
		{"contradiction", Filter{Type: TypeSLOBreach, Outcome: "ok"}, 0},
	}
	for _, c := range cases {
		if got := len(l.Snapshot(c.f)); got != c.want {
			t.Errorf("%s: got %d events, want %d", c.name, got, c.want)
		}
	}
}

func TestWriterSinkNDJSON(t *testing.T) {
	var buf bytes.Buffer
	l := New(Config{Sinks: []Sink{NewWriterSink(&buf)}})
	l.Emit(Event{Type: TypeReload, Msg: "ok", Err: "boom"})
	l.Emit(Event{Type: TypeDriftAlarm, Level: LevelError})
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		if e.Type == "" {
			t.Fatalf("line %d lost its type", lines)
		}
	}
	if lines != 2 {
		t.Fatalf("sink wrote %d lines, want 2", lines)
	}
	if strings.Contains(buf.String(), "per_layer") {
		t.Fatal("empty per_layer field serialized")
	}
}

func TestFileSinkRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.ndjson")
	sink, err := NewFileSink(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	l := New(Config{Sinks: []Sink{sink}, Rates: map[string]float64{TypeRequest: 0}})
	for i := 0; i < 50; i++ {
		l.Emit(Event{Type: TypeRequest, Outcome: "ok", Msg: "padding-padding-padding"})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("live log missing after rotation: %v", err)
	}
	if st.Size() > 256 {
		t.Fatalf("live log is %d bytes, cap 256", st.Size())
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("rotated generation missing: %v", err)
	}
	// Both generations must hold only whole NDJSON lines.
	for _, p := range []string{path, path + ".1"} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var e Event
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatalf("%s line %d torn by rotation: %v", p, i, err)
			}
		}
	}
}

func TestFileSinkClosedWrites(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewFileSink(filepath.Join(dir, "e.ndjson"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := sink.WriteEvent([]byte("{}")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestConcurrentEmitAndSnapshot(t *testing.T) {
	var buf bytes.Buffer
	l := New(Config{Ring: 64, Sinks: []Sink{NewWriterSink(&buf)}, Rates: map[string]float64{TypeRequest: 0}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Emit(Event{Type: TypeRequest, Outcome: "ok", Class: g})
				if i%32 == 0 {
					l.Snapshot(Filter{Valid: boolPtr(false), Limit: 8})
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(l.Snapshot(Filter{})); got != 64 {
		t.Fatalf("ring holds %d, want full 64", got)
	}
	// Every sink line must be intact JSON despite 8 writers.
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("interleaved sink line: %v", err)
		}
	}
}

func TestParseLevelRoundTrip(t *testing.T) {
	for _, lv := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		got, err := ParseLevel(lv.String())
		if err != nil || got != lv {
			t.Fatalf("ParseLevel(%q) = %v, %v", lv.String(), got, err)
		}
		data, err := json.Marshal(lv)
		if err != nil {
			t.Fatal(err)
		}
		var back Level
		if err := json.Unmarshal(data, &back); err != nil || back != lv {
			t.Fatalf("JSON round trip of %v = %v, %v", lv, back, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
}

// TestEventSnapshotOwnsRows: the ring copies an event's Layers and
// PerLayer into storage its slot owns, and Snapshot copies them out, so
// an emitter reusing its row after Emit, the ring wrapping, or a write
// into a snapshot's row changes no other snapshot's values.
func TestEventSnapshotOwnsRows(t *testing.T) {
	const n, width = 4, 3
	l := New(Config{Ring: n, Rates: map[string]float64{TypeRequest: -1}})
	row := make([]float64, width)
	layers := []int{1, 3, 5}
	emit := func(k int) {
		for j := range row {
			row[j] = float64(10*k + j)
		}
		l.Emit(Event{Type: TypeRequest, Outcome: "ok", Class: k, Layers: layers, PerLayer: row})
	}
	check := func(what string, es []Event) {
		t.Helper()
		if len(es) != n {
			t.Fatalf("%s: %d events, want %d", what, len(es), n)
		}
		for _, e := range es {
			if len(e.PerLayer) != width || len(e.Layers) != width {
				t.Fatalf("%s: event %d carries %d layers and %d values, want %d", what, e.Class, len(e.Layers), len(e.PerLayer), width)
			}
			for j, v := range e.PerLayer {
				if want := float64(10*e.Class + j); v != want || e.Layers[j] != layers[j] {
					t.Fatalf("%s: event %d value %d = %v at layer %d, want %v at layer %d", what, e.Class, j, v, e.Layers[j], want, layers[j])
				}
			}
		}
	}
	for k := 0; k < n; k++ {
		emit(k)
	}
	snap := l.Snapshot(Filter{})
	check("ring after the emitter reused its row", snap)
	for k := n; k < 3*n; k++ {
		emit(k)
	}
	check("snapshot after the ring wrapped twice", snap)
	check("ring after wrapping", l.Snapshot(Filter{}))
	snap[0].PerLayer[0], snap[0].Layers[0] = -1, -1
	check("ring after a snapshot's row was written", l.Snapshot(Filter{}))

	l.Emit(Event{Type: TypeReload})
	if e := l.Snapshot(Filter{Limit: 1})[0]; e.Layers != nil || e.PerLayer != nil {
		t.Fatalf("a reload event emitted over a verdict's slot carries layers %v and values %v", e.Layers, e.PerLayer)
	}
}
