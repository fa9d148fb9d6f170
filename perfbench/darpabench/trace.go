package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/detect"
	dmetrics "repro/internal/metrics"
	"repro/internal/tensor"
)

// Span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary.
type Span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the tracer started
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"` // span ID, -1 for a root
	Req    int64   `json:"req"`    // request ID, -1 for spans shared by a batch
	// Key identifies the screen a span carried (batch item spans record
	// one span per item), for matching batches to requests.
	Key uint64 `json:"key,omitempty"`
}

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Add records a span. Parents are linked once the run ends (linkParents),
// because a parent span ends after its children are recorded.
func (t *Tracer) Add(name string, req int64, key uint64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans), Name: name, Parent: -1, Req: req, Key: key,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0)),
	})
}

// Reset drops every span recorded so far.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// Spans returns a snapshot.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// linkParents sets each request span's parent to the span of the same
// request named parentOf[name].
func linkParents(spans []Span, parentOf map[string]string) {
	byReq := make(map[int64]map[string]int)
	for _, s := range spans {
		if s.Req < 0 {
			continue
		}
		m := byReq[s.Req]
		if m == nil {
			m = make(map[string]int)
			byReq[s.Req] = m
		}
		m[s.Name] = s.ID
	}
	for i, s := range spans {
		if p, ok := parentOf[s.Name]; ok && s.Req >= 0 {
			if id, ok := byReq[s.Req][p]; ok {
				spans[i].Parent = id
			}
		}
	}
}

// attachBatches matches every request span named call to the batch item
// span (named batch, Req -1) with the same key that started and ended
// inside it, and appends per-request copies: serve.queue from the call's
// start to the batch's start, and the batch span itself under the request.
// Inner spans (named inner, Req -1) overlapping the matched batch are
// copied too when inner is non-empty. It returns the extended span list
// and, per request, whether an inner span was found for its own key.
func attachBatches(spans []Span, call, batch, inner string) ([]Span, map[int64]bool) {
	byKey := make(map[uint64][]Span)
	innerByKey := make(map[uint64][]Span)
	var inners []Span
	for _, s := range spans {
		switch {
		case s.Req >= 0:
		case s.Name == batch:
			byKey[s.Key] = append(byKey[s.Key], s)
		case inner != "" && s.Name == inner:
			innerByKey[s.Key] = append(innerByKey[s.Key], s)
			inners = append(inners, s)
		}
	}
	for _, l := range byKey {
		sort.Slice(l, func(i, j int) bool { return l[i].Start < l[j].Start })
	}
	sort.Slice(inners, func(i, j int) bool { return inners[i].Start < inners[j].Start })
	own := make(map[int64]bool)
	out := spans
	add := func(s Span) {
		s.ID = len(out)
		out = append(out, s)
	}
	for _, c := range spans {
		if c.Req < 0 || c.Name != call {
			continue
		}
		l := byKey[c.Key]
		i := sort.Search(len(l), func(i int) bool { return l[i].Start >= c.Start })
		if i == len(l) || l[i].End > c.End {
			continue
		}
		b := l[i]
		add(Span{Name: "serve.queue", Start: c.Start, End: b.Start, Parent: -1, Req: c.Req, Key: c.Key})
		add(Span{Name: b.Name, Start: b.Start, End: b.End, Parent: -1, Req: c.Req, Key: c.Key})
		if inner == "" {
			continue
		}
		// The batch's forward (at most one per batch under a cache): any
		// inner span inside the batch interval.
		j := sort.Search(len(inners), func(j int) bool { return inners[j].Start >= b.Start })
		if j < len(inners) && inners[j].End <= b.End {
			add(Span{Name: inner, Start: inners[j].Start, End: inners[j].End, Parent: -1, Req: c.Req, Key: c.Key})
		}
		for _, s := range innerByKey[c.Key] {
			if s.Start >= b.Start && s.End <= b.End {
				own[c.Req] = true
			}
		}
	}
	return out, own
}

// selfTimes computes each span's self time: its duration minus the part of
// it its children cover. It returns, per span name, the self times of every
// span under a request root (req >= 0).
func selfTimes(spans []Span) map[string][]float64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		if s.Req < 0 {
			continue
		}
		out[s.Name] = append(out[s.Name], (s.End-s.Start)-covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(p Span, kids []Span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curA, curB := 0.0, -1.0, -1.0
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// Row is one line of a per-layer breakdown.
type Row struct {
	Layer string `json:"layer"`
	// AtMedianMS is the layer's mean self time over the requests whose
	// latency lies between the 40th and 60th percentile (0 where a request
	// has no such span): the blocking path of a median request.
	AtMedianMS float64 `json:"at_median_ms"`
	MedianMS   float64 `json:"median_ms"`
	MeanMS     float64 `json:"mean_ms"`
	N          int     `json:"n"`
}

// Breakdown attributes a workload's median latency to the layers on its
// blocking path, Table VII style: each path row is a layer's self time on
// requests near the median, and the unexplained remainder is the median
// latency minus their sum. Detail rows decompose path rows (the handler,
// the model forward) from the layer replay; they are informational and not
// part of the sum.
type Breakdown struct {
	What          string  `json:"what"`
	MedianMS      float64 `json:"median_latency_ms"`
	Path          []Row   `json:"path"`
	SumMS         float64 `json:"path_sum_ms"`
	UnexplainedMS float64 `json:"unexplained_ms"`
	DetailOf      string  `json:"detail_of,omitempty"`
	Detail        []Row   `json:"detail,omitempty"`
	OverheadMS    float64 `json:"tracing_overhead_ms"`
}

func row(layer string, xs []float64) Row {
	return Row{Layer: layer, MedianMS: quantile(xs, 0.5), MeanMS: mean(xs), N: len(xs)}
}

// newBreakdown attributes the median of the root spans' durations to the
// self times of the spans under them; path lists the root first, then the
// layers in blocking order.
func newBreakdown(what string, spans []Span, path []string) *Breakdown {
	root := path[0]
	perReq := make(map[int64]map[string]float64)
	var lat []float64
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	all := make(map[string][]float64)
	for _, s := range spans {
		if s.Req < 0 {
			continue
		}
		self := (s.End - s.Start) - covered(s, children[s.ID])
		all[s.Name] = append(all[s.Name], self)
		m := perReq[s.Req]
		if m == nil {
			m = make(map[string]float64)
			perReq[s.Req] = m
		}
		m[s.Name] += self
		if s.Name == root {
			lat = append(lat, s.End-s.Start)
			m["latency"] = s.End - s.Start
		}
	}
	lo, hi := quantile(lat, 0.4), quantile(lat, 0.6)
	var band []map[string]float64
	for _, m := range perReq {
		if l, ok := m["latency"]; ok && l >= lo && l <= hi {
			band = append(band, m)
		}
	}
	b := &Breakdown{What: what, MedianMS: quantile(lat, 0.5)}
	for _, name := range path {
		r := row(name, all[name])
		for _, m := range band {
			r.AtMedianMS += m[name]
		}
		r.AtMedianMS /= float64(max(len(band), 1))
		b.Path = append(b.Path, r)
		b.SumMS += r.AtMedianMS
	}
	b.UnexplainedMS = b.MedianMS - b.SumMS
	return b
}

func (b *Breakdown) print(w io.Writer) {
	fmt.Fprintf(w, "\nper-layer breakdown (%s): median latency %.3f ms\n", b.What, b.MedianMS)
	fmt.Fprintf(w, "  %-22s %12s %7s %10s %10s %8s\n", "layer (self time)", "at median ms", "share", "median ms", "mean ms", "n")
	for _, r := range b.Path {
		fmt.Fprintf(w, "  %-22s %12.3f %6.1f%% %10.3f %10.3f %8d\n", r.Layer, r.AtMedianMS, 100*r.AtMedianMS/b.MedianMS, r.MedianMS, r.MeanMS, r.N)
	}
	fmt.Fprintf(w, "  %-22s %12.3f\n", "sum along path", b.SumMS)
	fmt.Fprintf(w, "  %-22s %12.3f %6.1f%%\n", "unexplained remainder", b.UnexplainedMS, 100*b.UnexplainedMS/b.MedianMS)
	fmt.Fprintf(w, "  %-22s %12.3f\n", "tracing overhead (p50)", b.OverheadMS)
	if len(b.Detail) > 0 {
		fmt.Fprintf(w, "  %s, replayed layer by layer on recorded inputs (not added to the path):\n", b.DetailOf)
		for _, r := range b.Detail {
			fmt.Fprintf(w, "    %-24s %26s %10.3f %10.3f %8d\n", r.Layer, "", r.MedianMS, r.MeanMS, r.N)
		}
	}
}

// traceFile is what a traced run writes.
type traceFile struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	Spans     []Span     `json:"spans"`
	Dropped   int        `json:"spans_dropped"`
	Self      []Row      `json:"self_times"`
	Breakdown *Breakdown `json:"breakdown"`
}

// maxSpansWritten bounds the span file; self times use every span.
const maxSpansWritten = 200000

func writeTrace(o Options, spans []Span, b *Breakdown) error {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	tf := traceFile{Workload: o.Workload, Seed: o.Seed, Breakdown: b}
	for _, n := range names {
		tf.Self = append(tf.Self, row(n, self[n]))
	}
	if len(spans) > maxSpansWritten {
		tf.Dropped = len(spans) - maxSpansWritten
		spans = spans[:maxSpansWritten]
	}
	tf.Spans = spans
	return writeJSON(o.TraceOut, tf)
}

// The span wrappers below sit at layer boundaries the system exposes: an
// http.Handler, and the detect.Predictor seam the serving layers call.

type ctxKey struct{}

// handlerSpans times the server's http.Handler and carries the request ID
// into the context the handler passes to its backend.
func handlerSpans(h http.Handler, tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(headerRequestID), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, req)))
		tr.Add("httpd.handler", req, 0, t0, time.Now())
	})
}

// callSpans times one-screen calls into a backend (the batcher), keyed by
// the request ID found in the context and the screen's item key.
type callSpans struct {
	inner detect.Predictor
	tr    *Tracer
	name  string
}

func (c *callSpans) PredictTensor(x *tensor.Tensor, n int, conf float64) []dmetrics.Detection {
	d, _ := c.PredictTensorCtx(context.Background(), x, n, conf)
	return d
}

func (c *callSpans) PredictTensorCtx(ctx context.Context, x *tensor.Tensor, n int, conf float64) ([]dmetrics.Detection, error) {
	t0 := time.Now()
	d, err := detect.Predict(ctx, c.inner, x, n, conf)
	if req, ok := ctx.Value(ctxKey{}).(int64); ok {
		c.tr.Add(c.name, req, itemKey(x, n), t0, time.Now())
	}
	return d, err
}

// batchSpans times batched calls into a replica backend, one span per
// batch item carrying that item's key.
type batchSpans struct {
	inner detect.Detector
	tr    *Tracer
	name  string
}

func (b *batchSpans) Name() string { return b.inner.Name() }

func (b *batchSpans) PredictTensor(x *tensor.Tensor, n int, conf float64) []dmetrics.Detection {
	d, _ := b.PredictTensorCtx(context.Background(), x, n, conf)
	return d
}

func (b *batchSpans) PredictTensorCtx(ctx context.Context, x *tensor.Tensor, n int, conf float64) ([]dmetrics.Detection, error) {
	t0 := time.Now()
	d, err := detect.Predict(ctx, b.inner, x, n, conf)
	b.tr.Add(b.name, -1, itemKey(x, n), t0, time.Now())
	return d, err
}

func (b *batchSpans) PredictBatch(x *tensor.Tensor, conf float64) [][]dmetrics.Detection {
	d, _ := b.PredictBatchCtx(context.Background(), x, conf)
	return d
}

func (b *batchSpans) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, conf float64) ([][]dmetrics.Detection, error) {
	t0 := time.Now()
	d, err := detect.PredictBatchCtx(ctx, b.inner, x, conf)
	t1 := time.Now()
	for n := 0; n < x.Shape[0]; n++ {
		b.tr.Add(b.name, -1, itemKey(x, n), t0, t1)
	}
	return d, err
}
