package obs_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"eslurm/internal/obs"
)

// fakeClock is a settable virtual clock for tracer tests, so goldens
// don't depend on any engine behavior.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func TestNilTracerIsInert(t *testing.T) {
	var tr *obs.Tracer
	id := tr.Start("x", 0)
	if id != 0 {
		t.Fatalf("nil tracer Start returned %d, want 0", id)
	}
	tr.SetAttr(id, "k", "v")
	tr.SetAttrInt(id, "k", 1)
	tr.End(id)
	tr.Instant("y", id)
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatalf("nil tracer recorded something: len=%d", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil tracer WriteText: err=%v len=%d", err, buf.Len())
	}
	if tr.Digest() != 0 {
		t.Fatalf("nil tracer digest %x, want 0", tr.Digest())
	}
}

// TestNilTracerAllocatesNothing pins the disabled-tracing cost on the
// hot paths that annotate spans unconditionally (sched.submit renders a
// walltime for every job): a nil tracer must not even format the value.
func TestNilTracerAllocatesNothing(t *testing.T) {
	var tr *obs.Tracer
	if n := testing.AllocsPerRun(100, func() {
		tr.SetAttrInt(7, "walltime_ns", 3_600_000_000_000)
		tr.End(7)
	}); n != 0 {
		t.Fatalf("nil tracer SetAttrInt+End: %v allocs per call, want 0", n)
	}
}

func TestTracerChronologicalDump(t *testing.T) {
	c := &fakeClock{}
	tr := obs.NewTracer(c.Now)
	root := tr.Start("broadcast", 0, obs.Int("targets", 2))
	c.now = 5 * time.Nanosecond
	child := tr.Start("send", root)
	tr.Instant("retry", child, obs.Int("attempt", 2))
	c.now = 9 * time.Nanosecond
	tr.SetAttr(child, "ok", "true")
	tr.End(child)
	c.now = 12 * time.Nanosecond
	tr.End(root)
	// Ending twice is absorbed.
	tr.End(root)

	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"b 0 1 broadcast targets=2",
		"b 5 2 send parent=1 ok=true",
		"i 5 3 retry parent=2 attempt=2",
		"e 9 2 send",
		"e 12 1 broadcast",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("dump mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	sp := tr.Spans()[0]
	if !sp.Ended || sp.End != 12*time.Nanosecond || sp.Start != 0 {
		t.Fatalf("root span wrong: %+v", sp)
	}
}

func TestTracerOpenSpanStaysOpen(t *testing.T) {
	c := &fakeClock{}
	tr := obs.NewTracer(c.Now)
	id := tr.Start("never-ends", 0)
	if sp := tr.Spans()[id-1]; sp.Ended {
		t.Fatal("span reported ended without End")
	}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "e ") {
		t.Fatalf("open span emitted an end record: %q", buf.String())
	}
}

func TestTracerDigestDistinguishesRecordings(t *testing.T) {
	run := func(extra bool) uint64 {
		c := &fakeClock{}
		tr := obs.NewTracer(c.Now)
		id := tr.Start("a", 0)
		c.now = time.Microsecond
		if extra {
			tr.Instant("blip", id)
		}
		tr.End(id)
		return tr.Digest()
	}
	if run(false) != run(false) {
		t.Fatal("identical recordings digest differently")
	}
	if run(false) == run(true) {
		t.Fatal("different recordings digest identically")
	}
}
