package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/httpd"
	dmetrics "repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/render"
	"repro/internal/serve"
	"repro/internal/yolite"
)

// httpOpenRate is the open-loop arrival rate of http-upload, under a fifth
// of the closed-loop capacity measured on a 2-vCPU Xeon: the machine's CPUs
// are shared, and when another tenant slows them a more loaded open loop
// turns the slowdown into queueing, which multiplies it.
const httpOpenRate = 12.0

// Upload screens are the labelled 96x160 renders upscaled to the handset's
// 384x640 display, as a phone would capture them.
const (
	uploadW, uploadH = 384, 640
	uploadScale      = 4
)

// headerRequestID carries the benchmark's request ID to the traced handler.
const headerRequestID = "X-Request-ID"

type httpSystem struct {
	api     *httpd.Server
	srv     *http.Server
	batcher *serve.Batcher
	served  chan struct{}
	url     string
	tr      *http.Transport
	client  *http.Client
}

func (s *httpSystem) close() {
	s.api.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Shutdown closes the listener first, so Serve returns even when the
	// connection drain times out; nothing is left to report.
	_ = s.srv.Shutdown(ctx)
	<-s.served
	s.batcher.Close()
	s.tr.CloseIdleConnections()
}

// buildHTTP assembles the darpa-serve stack with its default flags: one
// float yolite replica behind serve.NewReplicated, one live tenant, no
// rate limit, no shedding, the pixel heuristic as degraded backend. With a
// tracer, wrappers record spans at the handler, the batcher and the
// replica boundaries.
func buildHTTP(o Options, conns int, tr *Tracer, first []byte) (*httpSystem, error) {
	reps, err := loadReplicas(o.Weights, 1)
	if err != nil {
		return nil, err
	}
	backends := make([]detect.Predictor, len(reps))
	for i, r := range reps {
		backends[i] = r
		if tr != nil {
			backends[i] = &batchSpans{inner: r, tr: tr, name: "serve.forward"}
		}
	}
	rec := &perfmodel.Timings{}
	batcher := serve.NewReplicated(serve.Options{
		Timings: rec,
		Tenants: map[serve.TenantID]serve.TenantConfig{"tenant0": {Priority: serve.PriorityLive}},
	}, backends...)
	var backend detect.Predictor = batcher
	if tr != nil {
		backend = &callSpans{inner: batcher, tr: tr, name: "serve.batcher"}
	}
	api := httpd.New(httpd.Config{
		Backend:  backend,
		Stats:    batcher.Stats,
		Timings:  rec,
		Degraded: httpd.PixelHeuristic{},
	})
	var handler http.Handler = api
	if tr != nil {
		handler = handlerSpans(api, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		batcher.Close()
		return nil, err
	}
	s := &httpSystem{
		api:     api,
		srv:     &http.Server{Handler: handler},
		batcher: batcher,
		served:  make(chan struct{}),
		url:     "http://" + ln.Addr().String() + "/v1/detect",
		tr:      &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	s.client = &http.Client{Transport: s.tr, Timeout: 30 * time.Second}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln)
	}()
	// Set-up ends with the first answered request.
	if _, err := s.post(context.Background(), first, -1); err != nil {
		s.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return s, nil
}

// post uploads one PNG and parses the 200 response.
func (s *httpSystem) post(ctx context.Context, body []byte, req int64) (*httpd.DetectResponse, error) {
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	r.Header.Set("Content-Type", "image/png")
	r.Header.Set(httpd.HeaderTenant, "tenant0")
	if req >= 0 {
		r.Header.Set(headerRequestID, strconv.FormatInt(req, 10))
	}
	res, err := s.client.Do(r)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	var dr httpd.DetectResponse
	if err := json.NewDecoder(res.Body).Decode(&dr); err != nil {
		return nil, fmt.Errorf("status %d: %w", res.StatusCode, err)
	}
	_, _ = io.Copy(io.Discard, res.Body)
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", res.StatusCode, dr.Error)
	}
	return &dr, nil
}

// upload is one request body with its expected response.
type upload struct {
	body []byte
	want []httpd.Detection
}

// prepareUploads encodes every screen as a 384x640 PNG and computes the
// reference: the bare model's PredictTensor on the tensor the handler
// builds (png.Decode, render.FromImage, yolite.CanvasToTensor), scaled to
// the upload's coordinates and put in wire form.
func prepareUploads(screens []screen, bare *yolite.Model) ([]upload, [][]dmetrics.Detection, error) {
	ups := make([]upload, len(screens))
	dets := make([][]dmetrics.Detection, len(screens))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := atomic.Int64{}
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(screens) {
					return
				}
				up, d, err := prepareUpload(screens[i].canvas, bare)
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				ups[i], dets[i] = up, d
			}
		}()
	}
	wg.Wait()
	return ups, dets, firstErr
}

func prepareUpload(c *render.Canvas, bare *yolite.Model) (upload, []dmetrics.Detection, error) {
	var buf bytes.Buffer
	if err := png.Encode(&buf, c.Resize(uploadW, uploadH).Image()); err != nil {
		return upload{}, nil, err
	}
	img, err := png.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return upload{}, nil, err
	}
	full := render.FromImage(img)
	x := yolite.CanvasToTensor(full)
	dets := bare.PredictTensor(x, 0, yolite.DefaultConfThresh)
	sx := float64(full.W) / float64(yolite.InputW)
	sy := float64(full.H) / float64(yolite.InputH)
	for i := range dets {
		dets[i].B = dets[i].B.Scale(sx, sy)
	}
	return upload{body: buf.Bytes(), want: wireDets(dets)}, dets, nil
}

func wireDets(dets []dmetrics.Detection) []httpd.Detection {
	out := make([]httpd.Detection, 0, len(dets))
	for _, d := range dets {
		class := "AGO"
		if d.Class == dataset.ClassUPO {
			class = "UPO"
		}
		out = append(out, httpd.Detection{Class: class, Box: httpd.Box{X: d.B.X, Y: d.B.Y, W: d.B.W, H: d.B.H}, Score: d.Score})
	}
	return out
}

func fromWire(ws []httpd.Detection) []dmetrics.Detection {
	out := make([]dmetrics.Detection, 0, len(ws))
	for _, w := range ws {
		c := dataset.ClassAGO
		if w.Class == "UPO" {
			c = dataset.ClassUPO
		}
		out = append(out, dmetrics.Detection{Class: c, Score: w.Score, B: geom.BoxF{X: w.Box.X, Y: w.Box.Y, W: w.Box.W, H: w.Box.H}})
	}
	return out
}

func sameWire(a, b []httpd.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// httpLoad runs one phase and tallies outcomes.
type httpLoad struct {
	sys    *httpSystem
	ups    []upload
	order  []int
	next   atomic.Int64
	lat    *series
	tracer *Tracer

	mu     sync.Mutex
	tried  int
	failed int
	mism   int
	got    map[int][]httpd.Detection
	errs   []string
}

// one sends the next upload, due at due, and checks its response.
func (l *httpLoad) one(due time.Time) {
	req := l.next.Add(1) - 1
	i := l.order[int(req)%len(l.order)]
	resp, err := l.sys.post(context.Background(), l.ups[i].body, req)
	done := time.Now()
	lat := ms(done.Sub(due))
	if l.tracer != nil {
		l.tracer.Add("http.request", req, 0, due, done)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tried++
	switch {
	case err != nil:
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
	case resp.Width != uploadW || resp.Height != uploadH || !sameWire(resp.Detections, l.ups[i].want):
		l.failed++
		l.mism++
	default:
		l.lat.add(done, lat)
		if _, ok := l.got[i]; !ok {
			l.got[i] = resp.Detections
		}
	}
}

// closed runs conns clients back to back for d and returns the completed
// request count.
func (l *httpLoad) closed(conns int, d time.Duration) int {
	start := time.Now()
	var wg sync.WaitGroup
	var n atomic.Int64
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				l.one(time.Now())
				n.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(n.Load())
}

// Windows the http-upload timings are reduced over: about 35 completions
// in the closed loop, 24 arrivals in the open loop.
const (
	httpClosedWindow = 500 * time.Millisecond
	httpOpenWindow   = 2 * time.Second
)

// phases runs the closed-loop capacity phase (three tenths of d), then the
// open-loop phase at httpOpenRate; beforeOpen runs between the two. It
// returns the capacity, the closed-loop request count and the open loop's
// dispatch lateness.
func (l *httpLoad) phases(conns int, rng *rand.Rand, d time.Duration, beforeOpen func()) (tput float64, n int, late []float64) {
	closedDur := d * 3 / 10
	l.lat = &series{}
	start := time.Now()
	n = l.closed(conns, closedDur)
	tput = l.lat.rate(start, start.Add(closedDur), httpClosedWindow)
	l.lat = &series{}
	if beforeOpen != nil {
		beforeOpen()
	}
	late = openLoop(rng, httpOpenRate, d-closedDur, func(_ int, due time.Time) { l.one(due) })
	return tput, n, late
}

func runHTTP(o Options) (*Outcome, error) {
	// The uploads are the evaluation split; the seed orders them and times
	// their arrivals.
	screens, err := evalSet(o.Corpus)
	if err != nil {
		return nil, err
	}
	bare, err := loadBare(o.Weights)
	if err != nil {
		return nil, err
	}
	ups, refDets, err := prepareUploads(screens, bare)
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	rng := rand.New(rand.NewSource(o.Seed))
	order := rng.Perm(len(ups))

	res := &Outcome{EndToEnd: map[string]Metric{}, Info: map[string]Metric{}, Rates: map[string]float64{"http-upload": httpOpenRate}}
	sys, setup, err := medianSetup(setupRuns, func() (*httpSystem, error) {
		return buildHTTP(o, conns, nil, ups[order[0]].body)
	}, (*httpSystem).close)
	if err != nil {
		return nil, err
	}
	res.EndToEnd["setup_s"] = Metric{Value: setup, Unit: "s", N: setupRuns}
	load := &httpLoad{sys: sys, ups: ups, order: order, lat: &series{}, got: map[int][]httpd.Detection{}}

	total := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		return traceHTTP(o, res, load, conns, rng, total, bare, screens, refDets)
	}
	heap := startHeapPeak()
	tput, n, late := load.phases(conns, rng, total, nil)
	peak := heap.Stop()
	res.EndToEnd["throughput_sps"] = Metric{Value: tput, Unit: "1/s", N: n}
	sys.close()

	lat := load.lat.values()
	if len(lat) == 0 {
		return nil, fmt.Errorf("http-upload: no successful open-loop request (%v)", load.errs)
	}
	res.EndToEnd["latency_p50_ms"] = Metric{Value: load.lat.windowed(httpOpenWindow, 15, 0.5), Unit: "ms", N: len(lat)}
	res.Info["latency_p90_ms"] = Metric{Value: load.lat.windowed(httpOpenWindow, 15, 0.9), Unit: "ms", N: len(lat)}
	res.EndToEnd["peak_heap_mb"] = Metric{Value: peak, Unit: "MiB"}
	finishHTTP(res, load, screens, refDets)
	res.Notes = append(res.Notes, fmt.Sprintf("closed loop: %d connections, %d requests; open loop: %d arrivals, generator late p90 %.3f ms",
		conns, n, len(late), quantile(late, 0.9)))
	return res, nil
}

// finishHTTP fills the outcome counts and the quality metrics. Quality is
// scored on the served responses (which the output check pinned to the
// reference); a screen the run never reached is scored on its reference.
func finishHTTP(res *Outcome, l *httpLoad, screens []screen, refDets [][]dmetrics.Detection) {
	res.Attempted, res.Failed, res.Mismatches = l.tried, l.failed, l.mism
	res.EndToEnd["ok_ratio"] = Metric{Value: 1 - float64(l.failed)/float64(max(l.tried, 1)), Unit: "ratio", N: l.tried}
	dets := make([][]dmetrics.Detection, len(screens))
	served := 0
	for i := range screens {
		if w, ok := l.got[i]; ok {
			dets[i] = fromWire(w)
			served++
		} else {
			dets[i] = refDets[i]
		}
	}
	scoreEval(res, screens, dets, uploadScale)
	res.Notes = append(res.Notes, fmt.Sprintf("output check: %d responses compared with the bare model, %d mismatches, %d failed; %d of %d screens served",
		l.tried, l.mism, l.failed, served, len(screens)))
	for _, e := range l.errs {
		res.Notes = append(res.Notes, "error: "+e)
	}
}

// traceHTTP runs both phases untraced, then again on a stack rebuilt with
// span wrappers, recording spans during the second open-loop phase, and
// attributes that phase's median latency.
func traceHTTP(o Options, res *Outcome, l *httpLoad, conns int, rng *rand.Rand, total time.Duration,
	bare *yolite.Model, screens []screen, refDets [][]dmetrics.Detection) (*Outcome, error) {
	l.phases(conns, rng, total/2, nil)
	untraced := quantile(l.lat.values(), 0.5)
	l.sys.close()

	tr := newTracer()
	sys, err := buildHTTP(o, conns, tr, l.ups[l.order[0]].body)
	if err != nil {
		return nil, err
	}
	l.sys = sys
	var st0 serve.Stats
	_, _, late := l.phases(conns, rng, total/2, func() {
		tr.Reset()
		l.tracer = tr
		st0 = sys.batcher.Stats()
	})
	st := sys.batcher.Stats()
	sys.close()
	finishHTTP(res, l, screens, refDets)

	spans := tr.Spans()
	spans, _ = attachBatches(spans, "serve.batcher", "serve.forward", "")
	linkParents(spans, map[string]string{
		"httpd.handler": "http.request",
		"serve.batcher": "httpd.handler",
		"serve.queue":   "serve.batcher",
		"serve.forward": "serve.batcher",
	})
	self := selfTimes(spans)
	s := samples{}
	for _, sp := range spans {
		switch {
		case sp.Req >= 0 && sp.Name == "httpd.handler":
			s.add("httpd.handler_ms", sp.End-sp.Start)
		case sp.Req >= 0 && sp.Name == "serve.forward":
			s.add("serve.forward_ms", sp.End-sp.Start)
		case sp.Req >= 0 && sp.Name == "serve.batcher":
			s.add("serve.live_p50_ms", sp.End-sp.Start)
		}
	}
	s["httpd.self_ms"] = self["httpd.handler"]
	s["http.transport_ms"] = self["http.request"]
	s["serve.queue_wait_ms"] = self["serve.queue"]
	s.add("serve.batch_size", float64(st.Items-st0.Items)/float64(max(st.Batches-st0.Batches, 1)))
	s.add("serve.shed_ratio", float64(st.Shed-st0.Shed)/float64(max(st.Offered-st0.Offered, 1)))
	s["gen.late_p90_ms"] = late

	// Layer replay on a sample of the uploads.
	var inputs []replayInput
	var bodies [][]byte
	for _, i := range rng.Perm(len(screens))[:60] {
		full := mustDecode(l.ups[i].body)
		x := yolite.CanvasToTensor(full)
		inputs = append(inputs, replayInput{x: x, aui: screens[i].kind != kindBenign, want: bare.PredictTensor(x, 0, yolite.DefaultConfThresh)})
		bodies = append(bodies, l.ups[i].body)
	}
	if err := replayRender(bodies[:30], 2, s); err != nil {
		return nil, err
	}
	if err := replayFloat(bare, inputs, 3, yolite.DefaultConfThresh, s); err != nil {
		return nil, err
	}

	b := newBreakdown("http-upload: request due to response parsed, open loop", spans,
		[]string{"http.request", "httpd.handler", "serve.batcher", "serve.queue", "serve.forward"})
	b.OverheadMS = b.MedianMS - untraced
	b.DetailOf = "httpd.handler self time and serve.forward"
	for _, name := range []string{"render.png_decode_ms", "render.from_image_ms", "render.downscale_ms", "yolite.to_tensor_ms",
		"yolite.B1_ms", "yolite.B2_ms", "yolite.B3_ms", "yolite.B3b_ms", "yolite.B4_ms", "yolite.B5_ms",
		"yolite.upo_head_ms", "yolite.ago_head_ms", "yolite.decode_ms", "yolite.refine_ms", "metrics.nms_ms"} {
		b.Detail = append(b.Detail, row(name, s[name]))
	}
	s.add("trace.overhead_ms", b.OverheadMS)
	s.add("trace.unexplained_ms", b.UnexplainedMS)
	res.Layers = layerMetrics(s)
	res.Breakdown = b
	return res, writeTrace(o, spans, b)
}

func mustDecode(body []byte) *render.Canvas {
	img, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	return render.FromImage(img)
}
