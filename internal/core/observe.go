package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"fargo/internal/ids"
	"fargo/internal/metrics"
	"fargo/internal/stats"
	"fargo/internal/trace"
	"fargo/internal/wire"
)

// coreMetrics caches the registry instruments touched on request paths, so
// the pipeline bumps lock-free counters instead of taking the registry lock
// per operation. Names follow the _total/_ns conventions the text dump
// renders by.
type coreMetrics struct {
	invokeLocal   *stats.Counter
	invokeFwd     *stats.Counter
	invokeErrs    *stats.Counter
	invokeLatency *stats.Histogram
	// staleLocal counts retries after a tracker said "local" but the
	// complet had already left (errStaleLocal): one per raced move.
	staleLocal *stats.Counter

	moves       *stats.Counter
	moveErrs    *stats.Counter
	moveLatency *stats.Histogram

	repairs     *stats.Counter
	repairFails *stats.Counter

	retries         *stats.Counter
	breakerOpened   *stats.Counter
	breakerClosed   *stats.Counter
	breakerRejected *stats.Counter

	hbProbes   *stats.Counter
	hbFailures *stats.Counter
	peersDown  *stats.Gauge
}

func newCoreMetrics(reg *metrics.Registry) *coreMetrics {
	return &coreMetrics{
		invokeLocal:   reg.Counter("invoke_local_total"),
		invokeFwd:     reg.Counter("invoke_forwarded_total"),
		invokeErrs:    reg.Counter("invoke_errors_total"),
		invokeLatency: reg.Histogram("invoke_latency_ns"),
		staleLocal:    reg.Counter("stale_local_retries_total"),

		moves:       reg.Counter("moves_total"),
		moveErrs:    reg.Counter("move_errors_total"),
		moveLatency: reg.Histogram("move_latency_ns"),

		repairs:     reg.Counter("chain_repairs_total"),
		repairFails: reg.Counter("chain_repair_failures_total"),

		retries:         reg.Counter("request_retries_total"),
		breakerOpened:   reg.Counter("breaker_opened_total"),
		breakerClosed:   reg.Counter("breaker_closed_total"),
		breakerRejected: reg.Counter("breaker_rejected_total"),

		hbProbes:   reg.Counter("heartbeat_probes_total"),
		hbFailures: reg.Counter("heartbeat_failures_total"),
		peersDown:  reg.Gauge("peers_down"),
	}
}

// --- stats query ------------------------------------------------------------

// HistStatFromSnapshot mirrors a stats snapshot into the wire form, exemplars
// included (wire stays free of stats types, so the mirror lives here).
func HistStatFromSnapshot(h stats.HistogramSnapshot) wire.HistogramStat {
	out := wire.HistogramStat{
		Count: h.Count, Sum: h.Sum, P50: h.P50, P95: h.P95, P99: h.P99,
		Bounds: h.Bounds, Buckets: h.Buckets,
	}
	if h.HasExemplars() {
		out.ExemplarValues = make([]float64, len(h.Exemplars))
		out.ExemplarTraces = make([]string, len(h.Exemplars))
		out.ExemplarNanos = make([]int64, len(h.Exemplars))
		for i, e := range h.Exemplars {
			out.ExemplarValues[i] = e.Value
			out.ExemplarTraces[i] = e.TraceID
			out.ExemplarNanos[i] = e.UnixNanos
		}
	}
	return out
}

// HistStatToSnapshot converts a wire histogram back to the stats form,
// restoring any shipped exemplars.
func HistStatToSnapshot(h wire.HistogramStat) stats.HistogramSnapshot {
	out := stats.HistogramSnapshot{
		Count: h.Count, Sum: h.Sum, P50: h.P50, P95: h.P95, P99: h.P99,
		Bounds: h.Bounds, Buckets: h.Buckets,
	}
	if len(h.ExemplarTraces) == len(h.Buckets) && len(h.Buckets) > 0 {
		out.Exemplars = make([]stats.Exemplar, len(h.ExemplarTraces))
		for i, id := range h.ExemplarTraces {
			if id == "" {
				continue
			}
			out.Exemplars[i] = stats.Exemplar{TraceID: id}
			if i < len(h.ExemplarValues) {
				out.Exemplars[i].Value = h.ExemplarValues[i]
			}
			if i < len(h.ExemplarNanos) {
				out.Exemplars[i].UnixNanos = h.ExemplarNanos[i]
			}
		}
	}
	return out
}

// statsReply snapshots this core's registry into the wire form.
func (c *Core) statsReply() wire.StatsQueryReply {
	snap := c.metrics.Snapshot()
	reply := wire.StatsQueryReply{
		Core:       c.id,
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: make(map[string]wire.HistogramStat, len(snap.Histograms)),
	}
	for name, h := range snap.Histograms {
		reply.Histograms[name] = HistStatFromSnapshot(h)
	}
	return reply
}

// handleStatsQuery serves a metrics snapshot to a peer (shell, monitor).
func (c *Core) handleStatsQuery(env wire.Envelope) (wire.Kind, []byte, error) {
	out, err := wire.EncodePayload(c.statsReply())
	if err != nil {
		return 0, nil, err
	}
	return wire.KindStatsQueryReply, out, nil
}

// StatsAt fetches a core's metrics snapshot (this core's own when dest is
// self). It is a thin context.Background wrapper over StatsAtCtx, running
// under the core's default request budget; prefer the ctx form.
func (c *Core) StatsAt(dest ids.CoreID) (wire.StatsQueryReply, error) {
	return c.StatsAtCtx(context.Background(), dest)
}

// StatsAtCtx fetches a core's metrics snapshot under the caller's context.
func (c *Core) StatsAtCtx(ctx context.Context, dest ids.CoreID) (wire.StatsQueryReply, error) {
	if dest == c.id || dest.Nil() {
		return c.statsReply(), nil
	}
	if c.isClosed() {
		return wire.StatsQueryReply{}, ErrClosed
	}
	payload, err := wire.EncodePayload(wire.StatsQuery{})
	if err != nil {
		return wire.StatsQueryReply{}, err
	}
	ctx, cancel := c.withBudget(ctx, 0)
	defer cancel()
	env, err := c.request(ctx, dest, wire.KindStatsQuery, payload)
	if err != nil {
		return wire.StatsQueryReply{}, fmt.Errorf("core: stats of %s: %w", dest, err)
	}
	var reply wire.StatsQueryReply
	if err := wire.DecodePayload(env.Payload, &reply); err != nil {
		return wire.StatsQueryReply{}, err
	}
	if reply.Err != "" {
		return wire.StatsQueryReply{}, &peerError{msg: fmt.Sprintf("core: stats of %s: %s", dest, reply.Err)}
	}
	return reply, nil
}

// FormatStats renders a stats reply as the plain-text dump the shell and
// monitor print.
func FormatStats(w io.Writer, reply wire.StatsQueryReply) {
	snap := metrics.Snapshot{
		Counters:   reply.Counters,
		Gauges:     reply.Gauges,
		Histograms: make(map[string]stats.HistogramSnapshot, len(reply.Histograms)),
	}
	for name, h := range reply.Histograms {
		snap.Histograms[name] = HistStatToSnapshot(h)
	}
	snap.WriteText(w)
}

// --- trace query ------------------------------------------------------------

// maxTraceSummaries bounds a trace listing reply.
const maxTraceSummaries = 32

// handleTraceQuery serves either recent trace summaries (Trace == 0) or the
// retained spans of one trace from this core's collector.
func (c *Core) handleTraceQuery(env wire.Envelope) (wire.Kind, []byte, error) {
	var req wire.TraceQuery
	if err := wire.DecodePayload(env.Payload, &req); err != nil {
		return 0, nil, err
	}
	reply := c.traceReply(req)
	out, err := wire.EncodePayload(reply)
	if err != nil {
		return 0, nil, err
	}
	return wire.KindTraceQueryReply, out, nil
}

func (c *Core) traceReply(req wire.TraceQuery) wire.TraceQueryReply {
	col := c.tracer.Collector()
	if req.Trace == 0 {
		max := req.Max
		if max <= 0 {
			max = maxTraceSummaries
		}
		sums := trace.Summarize(col.Snapshot(), max)
		reply := wire.TraceQueryReply{Summaries: make([]wire.TraceSummary, 0, len(sums))}
		for _, s := range sums {
			reply.Summaries = append(reply.Summaries, wire.TraceSummary{
				Trace:          uint64(s.Trace),
				Root:           s.Root,
				Spans:          s.Spans,
				StartUnixNanos: s.Start.UnixNano(),
				DurationNanos:  int64(s.Duration),
			})
		}
		return reply
	}
	spans := col.TraceSpans(trace.TraceID(req.Trace))
	reply := wire.TraceQueryReply{Spans: make([]wire.TraceSpan, 0, len(spans))}
	for _, sp := range spans {
		reply.Spans = append(reply.Spans, spanToWire(sp))
	}
	return reply
}

func spanToWire(sp trace.Span) wire.TraceSpan {
	out := wire.TraceSpan{
		Trace:          uint64(sp.Trace),
		Span:           uint64(sp.ID),
		Parent:         uint64(sp.Parent),
		Name:           sp.Name,
		Core:           ids.CoreID(sp.Core),
		StartUnixNanos: sp.Start.UnixNano(),
		DurationNanos:  int64(sp.Duration),
		Err:            sp.Err,
	}
	for _, a := range sp.Attrs {
		out.AttrKeys = append(out.AttrKeys, a.Key)
		out.AttrVals = append(out.AttrVals, a.Value)
	}
	return out
}

// SpansFromWire converts shipped spans back to trace.Span for tree building
// and export (merging replies from several cores is just appending slices).
func SpansFromWire(in []wire.TraceSpan) []trace.Span {
	out := make([]trace.Span, 0, len(in))
	for _, w := range in {
		sp := trace.Span{
			Trace:    trace.TraceID(w.Trace),
			ID:       trace.SpanID(w.Span),
			Parent:   trace.SpanID(w.Parent),
			Name:     w.Name,
			Core:     w.Core.String(),
			Start:    time.Unix(0, w.StartUnixNanos),
			Duration: time.Duration(w.DurationNanos),
			Err:      w.Err,
		}
		for i := range w.AttrKeys {
			v := ""
			if i < len(w.AttrVals) {
				v = w.AttrVals[i]
			}
			sp.Attrs = append(sp.Attrs, trace.Attr{Key: w.AttrKeys[i], Value: v})
		}
		out = append(out, sp)
	}
	return out
}

// TracesAt lists recent traces retained at a core (max 0 = server default).
// Thin context.Background wrapper over TracesAtCtx; prefer the ctx form.
func (c *Core) TracesAt(dest ids.CoreID, max int) ([]wire.TraceSummary, error) {
	return c.TracesAtCtx(context.Background(), dest, max)
}

// TracesAtCtx lists recent traces retained at a core under the caller's
// context.
func (c *Core) TracesAtCtx(ctx context.Context, dest ids.CoreID, max int) ([]wire.TraceSummary, error) {
	reply, err := c.traceQuery(ctx, dest, wire.TraceQuery{Max: max})
	if err != nil {
		return nil, err
	}
	return reply.Summaries, nil
}

// TraceAt fetches one trace's spans retained at a core. A full cross-core
// view merges TraceAt results from every involved core (each collector only
// holds the spans recorded there). Thin context.Background wrapper over
// TraceAtCtx; prefer the ctx form.
func (c *Core) TraceAt(dest ids.CoreID, id trace.TraceID) ([]wire.TraceSpan, error) {
	return c.TraceAtCtx(context.Background(), dest, id)
}

// TraceAtCtx fetches one trace's spans retained at a core under the
// caller's context.
func (c *Core) TraceAtCtx(ctx context.Context, dest ids.CoreID, id trace.TraceID) ([]wire.TraceSpan, error) {
	reply, err := c.traceQuery(ctx, dest, wire.TraceQuery{Trace: uint64(id)})
	if err != nil {
		return nil, err
	}
	return reply.Spans, nil
}

func (c *Core) traceQuery(ctx context.Context, dest ids.CoreID, req wire.TraceQuery) (wire.TraceQueryReply, error) {
	if dest == c.id || dest.Nil() {
		return c.traceReply(req), nil
	}
	if c.isClosed() {
		return wire.TraceQueryReply{}, ErrClosed
	}
	payload, err := wire.EncodePayload(req)
	if err != nil {
		return wire.TraceQueryReply{}, err
	}
	ctx, cancel := c.withBudget(ctx, 0)
	defer cancel()
	env, err := c.request(ctx, dest, wire.KindTraceQuery, payload)
	if err != nil {
		return wire.TraceQueryReply{}, fmt.Errorf("core: traces of %s: %w", dest, err)
	}
	var reply wire.TraceQueryReply
	if err := wire.DecodePayload(env.Payload, &reply); err != nil {
		return wire.TraceQueryReply{}, err
	}
	if reply.Err != "" {
		return wire.TraceQueryReply{}, &peerError{msg: fmt.Sprintf("core: traces of %s: %s", dest, reply.Err)}
	}
	return reply, nil
}

// --- batched observability query --------------------------------------------

// obsReply composes the selected per-core observability slices into one
// reply. It reuses the single-query builders, so the batched form can never
// drift from the individual endpoints.
func (c *Core) obsReply(req wire.ObsQuery) wire.ObsQueryReply {
	reply := wire.ObsQueryReply{Core: c.id}
	if req.Stats {
		s := c.statsReply()
		reply.Stats = &s
	}
	if req.Health {
		h := c.healthReply()
		reply.Health = &h
	}
	if req.Info {
		reply.Info = &wire.CoreInfoReply{Core: c.id, Complets: c.Complets(), Peers: c.Peers()}
	}
	if req.Flight {
		f := c.flightReply(req.FlightMax, req.FlightAfterSeq)
		reply.Flight = &f
	}
	if req.Traces {
		t := c.traceReply(wire.TraceQuery{Max: req.TraceMax})
		reply.Traces = &t
	}
	if req.Trace != 0 {
		reply.Spans = c.traceReply(wire.TraceQuery{Trace: req.Trace}).Spans
	}
	if req.Methods {
		reply.Methods = c.mon.MethodStats()
	}
	return reply
}

// MethodStatsAt fetches a core's per-method telemetry table (this core's own
// when dest is self), sorted by descending call count.
func (c *Core) MethodStatsAt(ctx context.Context, dest ids.CoreID) ([]wire.MethodStat, error) {
	reply, err := c.ObsAtCtx(ctx, dest, wire.ObsQuery{Methods: true})
	if err != nil {
		return nil, err
	}
	return reply.Methods, nil
}

// FormatMethodStats renders a per-method telemetry table for the shell's
// `top` command: hottest rows first.
func FormatMethodStats(w io.Writer, rows []wire.MethodStat, max int) {
	if len(rows) == 0 {
		fmt.Fprintln(w, "(no per-method telemetry yet)")
		return
	}
	if max > 0 && max < len(rows) {
		rows = rows[:max]
	}
	fmt.Fprintf(w, "%-14s %-24s %8s %6s %5s %10s %10s %10s\n",
		"COMPLET", "METHOD", "CALLS", "ERRS", "INFL", "P50", "P95", "P99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-24s %8d %6d %5d %10v %10v %10v\n",
			r.Complet, r.TypeName+"."+r.Method, r.Calls, r.Errors, r.InFlight,
			time.Duration(r.Latency.P50).Round(time.Microsecond),
			time.Duration(r.Latency.P95).Round(time.Microsecond),
			time.Duration(r.Latency.P99).Round(time.Microsecond))
	}
}

// handleObsQuery serves the batched observability query (the observatory's
// one-round-trip-per-member refresh).
func (c *Core) handleObsQuery(env wire.Envelope) (wire.Kind, []byte, error) {
	var req wire.ObsQuery
	if err := wire.DecodePayload(env.Payload, &req); err != nil {
		return 0, nil, err
	}
	out, err := wire.EncodePayload(c.obsReply(req))
	if err != nil {
		return 0, nil, err
	}
	return wire.KindObsQueryReply, out, nil
}

// ObsAtCtx fetches the selected observability slices of a core in a single
// round-trip (this core's own state when dest is self).
func (c *Core) ObsAtCtx(ctx context.Context, dest ids.CoreID, req wire.ObsQuery) (wire.ObsQueryReply, error) {
	if dest == c.id || dest.Nil() {
		return c.obsReply(req), nil
	}
	if c.isClosed() {
		return wire.ObsQueryReply{}, ErrClosed
	}
	payload, err := wire.EncodePayload(req)
	if err != nil {
		return wire.ObsQueryReply{}, err
	}
	ctx, cancel := c.withBudget(ctx, 0)
	defer cancel()
	env, err := c.request(ctx, dest, wire.KindObsQuery, payload)
	if err != nil {
		return wire.ObsQueryReply{}, fmt.Errorf("core: obs of %s: %w", dest, err)
	}
	var reply wire.ObsQueryReply
	if err := wire.DecodePayload(env.Payload, &reply); err != nil {
		return wire.ObsQueryReply{}, err
	}
	if reply.Err != "" {
		return wire.ObsQueryReply{}, &peerError{msg: fmt.Sprintf("core: obs of %s: %s", dest, reply.Err)}
	}
	return reply, nil
}

// ExportChromeTrace renders this core's retained spans as Chrome trace_event
// JSON (cmd/fargo-core --trace-out writes this at shutdown).
func (c *Core) ExportChromeTrace() ([]byte, error) {
	return trace.ExportChromeJSON(c.tracer.Collector().Snapshot())
}

// FormatTraceSummaries renders a trace listing for the shell.
func FormatTraceSummaries(w io.Writer, sums []wire.TraceSummary) {
	sorted := append([]wire.TraceSummary(nil), sums...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].StartUnixNanos > sorted[j].StartUnixNanos
	})
	for _, s := range sorted {
		root := s.Root
		if root == "" {
			root = "(rooted elsewhere)"
		}
		fmt.Fprintf(w, "%s  %-40s %2d spans  %v  %s\n",
			trace.TraceID(s.Trace), root, s.Spans,
			time.Duration(s.DurationNanos).Round(time.Microsecond),
			time.Unix(0, s.StartUnixNanos).Format("15:04:05.000"))
	}
}
