package trace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsNoOp(t *testing.T) {
	ctx, sp := Start(context.Background(), "orphan")
	if sp != nil {
		t.Fatalf("Start without a trace returned a span: %+v", sp)
	}
	if FromContext(ctx) != nil {
		t.Fatal("context gained a span without a root")
	}
	// Every method must be callable on the nil span.
	sp.Attr("k", "v")
	sp.AttrInt("n", 1)
	sp.Event("e", "k", "v")
	sp.Error(errors.New("x"))
	sp.Force()
	sp.End()
	if !sp.TraceID().IsZero() || !sp.ID().IsZero() {
		t.Error("nil span has non-zero IDs")
	}

	var tr *Tracer
	if _, sp := tr.StartRoot(context.Background(), "root", Traceparent{}); sp != nil {
		t.Error("nil tracer started a span")
	}
}

func TestSpanTreeAndForcedRetention(t *testing.T) {
	tr := New(Config{SampleEvery: -1})
	ctx, root := tr.StartRoot(context.Background(), "http", Traceparent{})
	root.Attr("method", "POST")
	root.Force()

	ctx2, child := Start(ctx, "eval")
	child.AttrInt("workers", 4)

	// Concurrent shard spans, like the parallel worker pool.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sp := Start(ctx2, "shard")
			sp.Event("ran", "i", fmt.Sprint(i))
			sp.End()
		}(i)
	}
	wg.Wait()
	child.End()
	root.End()

	d, ok := tr.Store().Get(root.TraceID().String())
	if !ok {
		t.Fatal("forced trace not retained")
	}
	if d.Retained != RetainForced {
		t.Errorf("retained = %q, want %q", d.Retained, RetainForced)
	}
	if d.Status != "ok" {
		t.Errorf("status = %q, want ok", d.Status)
	}
	if d.Root != "http" {
		t.Errorf("root = %q, want http", d.Root)
	}
	if len(d.Spans) != 10 {
		t.Fatalf("got %d spans, want 10", len(d.Spans))
	}

	byID := make(map[string]SpanData)
	var shardCount int
	var rootID, evalID string
	for _, sd := range d.Spans {
		byID[sd.ID] = sd
		switch sd.Name {
		case "http":
			rootID = sd.ID
		case "eval":
			evalID = sd.ID
		case "shard":
			shardCount++
		}
	}
	if shardCount != 8 {
		t.Errorf("got %d shard spans, want 8", shardCount)
	}
	if byID[evalID].Parent != rootID {
		t.Errorf("eval's parent = %q, want root %q", byID[evalID].Parent, rootID)
	}
	for _, sd := range d.Spans {
		if sd.Name == "shard" && sd.Parent != evalID {
			t.Errorf("shard's parent = %q, want eval %q", sd.Parent, evalID)
		}
		// Children nest inside the root's window.
		if sd.StartMicros < 0 || sd.StartMicros+sd.DurationMicros > d.DurationMicros+1 {
			t.Errorf("span %s [%d, +%d] outside root window %d",
				sd.Name, sd.StartMicros, sd.DurationMicros, d.DurationMicros)
		}
	}
	if d.Spans[0].Name != "http" {
		t.Errorf("first span by start offset = %q, want the root", d.Spans[0].Name)
	}
}

func TestErrorRetention(t *testing.T) {
	tr := New(Config{SampleEvery: -1})
	ctx, root := tr.StartRoot(context.Background(), "http", Traceparent{})
	_, sp := Start(ctx, "eval")
	sp.Error(errors.New("shard panic"))
	sp.End()
	root.End()

	d, ok := tr.Store().Get(root.TraceID().String())
	if !ok {
		t.Fatal("failed trace not retained")
	}
	if d.Retained != RetainError || d.Status != "error" {
		t.Errorf("retained=%q status=%q, want error/error", d.Retained, d.Status)
	}
	for _, sd := range d.Spans {
		if sd.Name == "eval" && sd.Error != "shard panic" {
			t.Errorf("eval span error = %q", sd.Error)
		}
	}
}

func TestLatencyRetention(t *testing.T) {
	tr := New(Config{SampleEvery: -1, LatencyThreshold: time.Nanosecond})
	_, root := tr.StartRoot(context.Background(), "http", Traceparent{})
	time.Sleep(time.Millisecond)
	root.End()
	d, ok := tr.Store().Get(root.TraceID().String())
	if !ok || d.Retained != RetainLatency {
		t.Fatalf("slow trace not retained by latency (ok=%v)", ok)
	}
}

func TestSamplingBounds(t *testing.T) {
	always := New(Config{SampleEvery: time.Nanosecond})
	for range 3 {
		_, root := always.StartRoot(context.Background(), "http", Traceparent{})
		root.End()
		if _, ok := always.Store().Get(root.TraceID().String()); !ok {
			t.Error("SampleEvery=1ns dropped a trace")
		}
	}

	never := New(Config{SampleEvery: -1})
	_, root := never.StartRoot(context.Background(), "http", Traceparent{})
	root.End()
	if _, ok := never.Store().Get(root.TraceID().String()); ok {
		t.Error("SampleEvery=-1 retained an unremarkable trace")
	}
	retained, dropped, spans := never.Store().Totals()
	if retained != 0 || dropped != 1 || spans != 1 {
		t.Errorf("totals = (%d, %d, %d), want (0, 1, 1)", retained, dropped, spans)
	}
}

// TestSamplingPacedByTime: at most one unremarkable trace is sampled per
// SampleEvery, the first one included, and concurrent finishes keep
// exactly one between them.
func TestSamplingPacedByTime(t *testing.T) {
	finish := func(tr *Tracer) bool {
		_, root := tr.StartRoot(context.Background(), "http", Traceparent{})
		root.End()
		_, ok := tr.Store().Get(root.TraceID().String())
		return ok
	}
	paced := New(Config{SampleEvery: 20 * time.Millisecond})
	if !finish(paced) {
		t.Fatal("the first unremarkable trace was not sampled")
	}
	if finish(paced) {
		t.Error("a second trace within SampleEvery was sampled")
	}
	time.Sleep(25 * time.Millisecond)
	if !finish(paced) {
		t.Error("no trace sampled once SampleEvery had passed")
	}

	hourly := New(Config{SampleEvery: time.Hour})
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perWriter {
				finish(hourly)
			}
		}()
	}
	wg.Wait()
	if retained, dropped, _ := hourly.Store().Totals(); retained != 1 || dropped != writers*perWriter-1 {
		t.Errorf("concurrent finishes under a 1h interval: retained=%d dropped=%d, want 1/%d", retained, dropped, writers*perWriter-1)
	}
}

func TestBoundedAttrsEventsSpans(t *testing.T) {
	tr := New(Config{SampleEvery: -1})
	ctx, root := tr.StartRoot(context.Background(), "http", Traceparent{})
	root.Force()
	for i := 0; i < maxAttrsPerSpan+1; i++ {
		root.Attr("k", "v")
	}
	for i := 0; i < maxEventsPerSpan+1; i++ {
		root.Event("e")
	}
	for i := 0; i < maxSpansPerTrace+1; i++ {
		_, sp := Start(ctx, "child")
		sp.End()
	}
	root.End()

	d, _ := tr.Store().Get(root.TraceID().String())
	if d == nil {
		t.Fatal("forced trace missing")
	}
	// Root always recorded, so the bounded children + root.
	if len(d.Spans) != maxSpansPerTrace+1 {
		t.Errorf("got %d spans, want %d (%d children + root)", len(d.Spans), maxSpansPerTrace+1, maxSpansPerTrace)
	}
	if d.DroppedSpans != 1 {
		t.Errorf("dropped_spans = %d, want 1", d.DroppedSpans)
	}
	for _, sd := range d.Spans {
		if sd.Name == "http" {
			if len(sd.Attrs) != maxAttrsPerSpan || len(sd.Events) != maxEventsPerSpan {
				t.Errorf("bounds not applied: %d attrs, %d events", len(sd.Attrs), len(sd.Events))
			}
		}
	}
}

// TestChildEndingAfterRoot: a span that ends after its root (a shard
// worker outliving a cancelled request) belongs to the stored trace, which
// completes only when the root and every span under it have ended. A span
// started after completion joins no trace.
func TestChildEndingAfterRoot(t *testing.T) {
	tr := New(Config{SampleEvery: -1})
	ctx, root := tr.StartRoot(context.Background(), "http", Traceparent{})
	root.Force()
	_, child := Start(ctx, "late")
	root.End()
	if retained, dropped, _ := tr.Store().Totals(); retained+dropped != 0 {
		t.Fatalf("trace finished with a span still open: retained=%d dropped=%d", retained, dropped)
	}
	child.End()
	d, ok := tr.Store().Get(root.TraceID().String())
	if !ok {
		t.Fatal("forced trace missing after its last span ended")
	}
	if len(d.Spans) != 2 || d.Spans[1].Name != "late" || d.Root != "http" {
		t.Errorf("stored trace %+v, want the root and the late child", d)
	}
	if _, dropped, spans := tr.Store().Totals(); dropped != 0 || spans != 2 {
		t.Errorf("totals: dropped=%d spans=%d, want 0 and 2", dropped, spans)
	}
	if _, sp := Start(ctx, "after"); sp != nil {
		t.Error("a span started after the trace completed joined it")
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := New(Config{SampleEvery: time.Nanosecond})
	_, root := tr.StartRoot(context.Background(), "http", Traceparent{})
	root.End()
	root.End()
	root.End()
	retained, dropped, _ := tr.Store().Totals()
	if retained+dropped != 1 {
		t.Errorf("double End finished the trace %d times", retained+dropped)
	}
}

// TestTotalsCountFinishedTrace: a finished trace is counted once, with its
// span count and the retention verdict, whether or not it was kept.
func TestTotalsCountFinishedTrace(t *testing.T) {
	tr := New(Config{SampleEvery: -1})
	ctx, root := tr.StartRoot(context.Background(), "http", Traceparent{})
	_, sp := Start(ctx, "child")
	sp.End()
	root.End()
	if retained, dropped, spans := tr.Store().Totals(); retained != 0 || dropped != 1 || spans != 2 {
		t.Errorf("totals = (%d, %d, %d), want (0, 1, 2)", retained, dropped, spans)
	}
}

func TestRemoteParentAdopted(t *testing.T) {
	tr := New(Config{SampleEvery: -1})
	remote, ok := ParseTraceparent("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	_, root := tr.StartRoot(context.Background(), "http", remote)
	root.Force()
	root.End()

	d, ok := tr.Store().Get("0123456789abcdef0123456789abcdef")
	if !ok {
		t.Fatal("remote-parented trace not stored under the caller's ID")
	}
	if d.Spans[0].Parent != "00f067aa0ba902b7" {
		t.Errorf("root's parent = %q, want the remote span", d.Spans[0].Parent)
	}
	// Root is still rendered as this trace's root: its parent span is not
	// among the stored spans.
	if d.Root != "http" {
		t.Errorf("root name = %q", d.Root)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tp := Traceparent{Sampled: true}
	copy(tp.TraceID[:], []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef})
	copy(tp.SpanID[:], []byte{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7})
	h := tp.String()
	if h != "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01" {
		t.Fatalf("String() = %q", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != tp {
		t.Fatalf("round trip: got %+v ok=%v", got, ok)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7",      // no flags
		"01-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01",   // wrong version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace id
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",   // zero span id
		"00-0123456789ABCDEF0123456789abcdef-00f067aa0ba902b7-01",   // uppercase hex
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-0g",   // bad flags
		"00-0123456789abcdef0123456789abcdef_00f067aa0ba902b7-01",   // bad separator
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01-x", // trailing junk
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("accepted malformed traceparent %q", h)
		}
	}
}

func TestStoreEvictionAndLookup(t *testing.T) {
	tr := New(Config{Capacity: 2, SampleEvery: time.Nanosecond})
	var ids []string
	for i := 0; i < 3; i++ {
		_, root := tr.StartRoot(context.Background(), "http", Traceparent{})
		ids = append(ids, root.TraceID().String())
		root.End()
	}
	st := tr.Store()
	if st.Len() != 2 {
		t.Fatalf("store holds %d traces, want 2", st.Len())
	}
	if _, ok := st.Get(ids[0]); ok {
		t.Error("oldest trace not evicted")
	}
	snap := st.Snapshot()
	if len(snap) != 2 || snap[0].TraceID != ids[2] || snap[1].TraceID != ids[1] {
		t.Errorf("snapshot not newest-first: %v", []string{snap[0].TraceID, snap[1].TraceID})
	}
	if _, ok := st.Get("not-a-trace-id"); ok {
		t.Error("Get accepted an unparseable ID")
	}
}

// TestStoreConcurrentStress races writers (finishing traces, some with
// concurrent shard spans) against snapshot readers; run under -race it is
// the trace store's data-race gate. Every trace is forced, so the totals
// are exact however the writers' root spans interleave.
func TestStoreConcurrentStress(t *testing.T) {
	tr := New(Config{Capacity: 16, SampleEvery: -1})
	const writers = 8
	const perWriter = 50
	var wg, writerWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				ctx, root := tr.StartRoot(context.Background(), "http", Traceparent{})
				root.Force()
				ctx2, eval := Start(ctx, "eval")
				var shards sync.WaitGroup
				for s := 0; s < 3; s++ {
					shards.Add(1)
					go func() {
						defer shards.Done()
						_, sp := Start(ctx2, "shard")
						sp.Event("ran")
						sp.End()
					}()
				}
				shards.Wait()
				eval.End()
				if i%7 == 0 {
					root.Error(errors.New("injected"))
				}
				root.End()
			}
		}()
	}
	// Readers hammer Snapshot/Get/Totals while writers publish.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, d := range tr.Store().Snapshot() {
					tr.Store().Get(d.TraceID)
				}
				tr.Store().Totals()
			}
		}()
	}

	writerWG.Wait()
	close(stop)
	wg.Wait()

	retained, dropped, spans := tr.Store().Totals()
	if retained != writers*perWriter || dropped != 0 {
		t.Errorf("totals: retained=%d dropped=%d, want %d/0", retained, dropped, writers*perWriter)
	}
	if want := int64(writers * perWriter * 5); spans != want {
		t.Errorf("spans total = %d, want %d", spans, want)
	}
	if tr.Store().Len() != 16 {
		t.Errorf("store len = %d, want capacity 16", tr.Store().Len())
	}
}

// TestStoreEvictsSampledFirst: a trace kept for a cause (here latency)
// outlives capacity newer sampled traces, and only newer traces kept for a
// cause push it out.
func TestStoreEvictsSampledFirst(t *testing.T) {
	const capacity = 4
	tr := New(Config{Capacity: capacity, SampleEvery: time.Nanosecond, LatencyThreshold: 100 * time.Millisecond})
	finish := func(force bool) string {
		_, root := tr.StartRoot(context.Background(), "http", Traceparent{})
		if force {
			root.Force()
		}
		root.End()
		return root.TraceID().String()
	}
	_, slow := tr.StartRoot(context.Background(), "http", Traceparent{})
	time.Sleep(110 * time.Millisecond)
	slow.End()
	slowID := slow.TraceID().String()
	if d, ok := tr.Store().Get(slowID); !ok || d.Retained != RetainLatency {
		t.Fatalf("slow trace not retained by latency (ok=%v)", ok)
	}

	var sampled []string
	for i := 0; i < capacity; i++ {
		sampled = append(sampled, finish(false))
	}
	if _, ok := tr.Store().Get(slowID); !ok {
		t.Fatalf("latency trace evicted by %d newer sampled traces", capacity)
	}
	if _, ok := tr.Store().Get(sampled[0]); ok {
		t.Error("oldest sampled trace survived; the latency trace should have outranked it")
	}
	if got := tr.Store().Len(); got != capacity {
		t.Errorf("store holds %d traces, want %d", got, capacity)
	}

	for i := 0; i < capacity-1; i++ {
		finish(true)
	}
	if _, ok := tr.Store().Get(slowID); !ok {
		t.Fatal("latency trace evicted while sampled traces remained")
	}
	finish(true)
	if _, ok := tr.Store().Get(slowID); ok {
		t.Error("latency trace survived capacity newer forced traces")
	}
	for _, d := range tr.Store().Snapshot() {
		if d.Retained != RetainForced {
			t.Errorf("store kept a %s trace next to %d forced ones", d.Retained, capacity)
		}
	}
}

// TestStoreKeepsEveryRequestOfATraceID: two requests that propagate one
// trace ID are two entries; Get merges their spans onto the earlier start.
func TestStoreKeepsEveryRequestOfATraceID(t *testing.T) {
	tr := New(Config{SampleEvery: -1})
	const id = "0123456789abcdef0123456789abcdef"
	parents := []string{"00f067aa0ba902b7", "00f067aa0ba902b8"}
	for _, parent := range parents {
		remote, ok := ParseTraceparent("00-" + id + "-" + parent + "-01")
		if !ok {
			t.Fatal("valid traceparent rejected")
		}
		ctx, root := tr.StartRoot(context.Background(), "http", remote)
		root.Force()
		_, sp := Start(ctx, "eval")
		sp.Event("ran")
		sp.End()
		root.End()
		time.Sleep(time.Millisecond)
	}

	if got := tr.Store().Len(); got != 2 {
		t.Fatalf("store holds %d entries, want one per request (2)", got)
	}
	snap := tr.Store().Snapshot()
	if snap[0].TraceID != id || snap[1].TraceID != id || len(snap[0].Spans) != 2 || len(snap[1].Spans) != 2 {
		t.Fatalf("snapshot entries do not each hold one request: %+v", snap)
	}

	d, ok := tr.Store().Get(id)
	if !ok {
		t.Fatal("shared trace ID not found")
	}
	if len(d.Spans) != 4 || d.Retained != RetainForced || d.Status != "ok" {
		t.Fatalf("merged trace: %d spans, retained %q, status %q; want 4, forced, ok", len(d.Spans), d.Retained, d.Status)
	}
	var roots []string
	for _, sp := range d.Spans {
		if sp.Name == "http" {
			roots = append(roots, sp.Parent)
		}
		if sp.StartMicros < 0 || sp.StartMicros+sp.DurationMicros > d.DurationMicros+1 {
			t.Errorf("span %s [%d, +%d] outside the merged window %d", sp.Name, sp.StartMicros, sp.DurationMicros, d.DurationMicros)
		}
		for _, ev := range sp.Events {
			if ev.AtMicros < sp.StartMicros {
				t.Errorf("event %s at %dµs precedes its span's start %dµs", ev.Name, ev.AtMicros, sp.StartMicros)
			}
		}
	}
	if fmt.Sprint(roots) != fmt.Sprint(parents) {
		t.Errorf("merged roots have parents %v, want %v (earlier request first)", roots, parents)
	}
	if !d.Start.Equal(snap[1].Start) {
		t.Errorf("merged start %v, want the earlier request's %v", d.Start, snap[1].Start)
	}
}
