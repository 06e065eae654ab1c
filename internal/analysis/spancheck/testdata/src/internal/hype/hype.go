// Package hype is a spancheck fixture: both accepted End shapes (each a
// defer), the rejected ones, and non-literal span/event names.
package hype

import (
	"context"

	"trace"
)

func work() {}

func viaDefer(ctx context.Context) {
	_, sp := trace.Start(ctx, "hype.shard")
	defer sp.End()
	work()
}

func viaDeferredClosure(ctx context.Context) {
	_, sp := trace.Start(ctx, "hype.merge")
	defer func() {
		sp.Event("done")
		sp.End()
	}()
	work()
}

func viaStraightLine(ctx context.Context) {
	_, sp := trace.Start(ctx, "hype.plan") // want `span sp is not ended by defer: defer sp\.End\(\) right after starting it`
	work()
	sp.Attr("shards", "8")
	sp.End()
	if ctx.Err() != nil {
		return
	}
	work()
}

func viaRoot(ctx context.Context, t *trace.Tracer) {
	_, sp := t.StartRoot(ctx, "http", trace.Traceparent{})
	defer sp.End()
	work()
}

func leaked(ctx context.Context) {
	_, sp := trace.Start(ctx, "leak") // want `span sp is not ended by defer: defer sp\.End\(\) right after starting it`
	sp.Attr("k", "v")
	work()
}

func returnBeforeEnd(ctx context.Context, bad bool) {
	_, sp := trace.Start(ctx, "maybe") // want `span sp is not ended by defer: defer sp\.End\(\) right after starting it`
	if bad {
		return
	}
	sp.End()
}

func discardedBlank(ctx context.Context) {
	_, _ = trace.Start(ctx, "blank") // want `span result discarded: assign the span and End it`
}

func discardedExpr(ctx context.Context) {
	trace.Start(ctx, "expr") // want `span result discarded: assign the span and End it`
}

func dynamicSpanName(ctx context.Context, name string) {
	_, sp := trace.Start(ctx, name) // want `span name must be a string literal`
	defer sp.End()
	work()
}

func dynamicEventName(ctx context.Context, what string) {
	_, sp := trace.Start(ctx, "events")
	defer sp.End()
	sp.Event(what) // want `event name must be a string literal`
}

func insideClosure(ctx context.Context) {
	f := func() {
		_, sp := trace.Start(ctx, "inner")
		defer sp.End()
		work()
	}
	f()
}

func suppressed(ctx context.Context) {
	//lint:ignore spancheck fixture demonstrates suppression
	_, sp := trace.Start(ctx, "suppressed")
	sp.Attr("k", "v")
}
