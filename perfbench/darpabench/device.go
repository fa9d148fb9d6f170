package main

import (
	"context"
	"fmt"
	"sync"
	"syscall"
	"time"

	"repro/internal/auigen"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/fleet"
	dmetrics "repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// The int8 port is calibrated on a fixed set, independent of the run seed,
// so every run measures the same device model.
const (
	calibSeed = 1
	calibN    = 16
)

// deviceScale maps model-input to screen coordinates on the handset's
// 384x640 display.
const deviceScale = 4

// deviceWindow is the window latencies are reduced over (about 150
// analyses).
const deviceWindow = 2 * time.Second

// deviceRateWindow is the window throughput is measured over (about 80
// analyses).
const deviceRateWindow = time.Second

// arenaScreens bounds how many analyses one run records for the output
// check; the measured phase ends early if it fills.
const arenaScreens = 8192

// arena holds recorded model inputs outside the Go heap, so recording
// neither shows in peak_heap_mb nor changes GC pacing.
type arena struct {
	mem  []byte
	used int
}

func newArena(n int) (*arena, error) {
	mem, err := syscall.Mmap(-1, 0, n*yolite.InputW*yolite.InputH*3, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("recording arena: %w", err)
	}
	return &arena{mem: mem}, nil
}

func (a *arena) free() { _ = syscall.Munmap(a.mem) }

// infCall is one recorded inference: the input (as its 8-bit pixels, which
// CanvasToTensor divides by 255 — exact to reconstruct), a hash of the
// original float bits to prove the reconstruction, and the result.
type infCall struct {
	off  int
	hash uint64
	dets []dmetrics.Detection
}

// recorder is the detector handed to the handset: it forwards to the int8
// backend and records every input and result for the output check.
type recorder struct {
	inner detect.Detector
	mu    sync.Mutex
	arena *arena
	calls []infCall
	full  bool
}

func (r *recorder) Name() string { return r.inner.Name() }

func (r *recorder) PredictTensor(x *tensor.Tensor, n int, conf float64) []dmetrics.Detection {
	dets, _ := r.PredictTensorCtx(context.Background(), x, n, conf)
	return dets
}

func (r *recorder) PredictTensorCtx(ctx context.Context, x *tensor.Tensor, n int, conf float64) ([]dmetrics.Detection, error) {
	dets, err := detect.Predict(ctx, r.inner, x, n, conf)
	if err != nil {
		return dets, err
	}
	c := infCall{dets: copyDets(dets)}
	r.mu.Lock()
	defer r.mu.Unlock()
	per := yolite.InputW * yolite.InputH * 3
	if r.arena.used+per > len(r.arena.mem) {
		r.full = true
		c.off = -1
	} else {
		c.off = r.arena.used
		dst := r.arena.mem[c.off : c.off+per]
		for i, v := range x.Data[:per] {
			dst[i] = uint8(v*255 + 0.5)
		}
		r.arena.used += per
		c.hash = itemKey(x, n)
	}
	r.calls = append(r.calls, c)
	return dets, nil
}

// input reconstructs a recorded input tensor.
func (r *recorder) input(c infCall) *tensor.Tensor {
	per := yolite.InputW * yolite.InputH * 3
	x := tensor.New(1, 3, yolite.InputH, yolite.InputW)
	for i, b := range r.arena.mem[c.off : c.off+per] {
		x.Data[i] = float32(b) / 255
	}
	return x
}

type deviceSystem struct {
	h   *fleet.Handset
	rec *recorder
	svc *core.Service

	// per-analysis observations, appended by OnAnalysis on the clock
	// goroutine.
	mu        sync.Mutex
	prev      core.Stats
	observing bool
	tracer    *Tracer
	latency   *series
	stages    [core.NumStages][]float64
	postBad   int // Analysis.Detections != scaled recorded result
	analyses  int
}

func (s *deviceSystem) onAnalysis(a core.Analysis) {
	st := s.svc.Stats()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.analyses++
	var parts [core.NumStages]float64
	total := 0.0
	for i := range parts {
		parts[i] = ms(st.Stages[i].Time - s.prev.Stages[i].Time)
		total += parts[i]
	}
	s.prev = st
	// The service records a stage's time when the stage ends, and this
	// observer runs inside the act stage: the act time in the delta is the
	// previous analysis's, which stands in for this one's.
	s.rec.mu.Lock()
	var last infCall
	if n := len(s.rec.calls); n > 0 {
		last = s.rec.calls[n-1]
	}
	s.rec.mu.Unlock()
	want := copyDets(last.dets)
	for i := range want {
		want[i].B = want[i].B.Scale(deviceScale, deviceScale)
	}
	if !sameDets(want, a.Detections) {
		s.postBad++
	}
	if !s.observing {
		return
	}
	s.latency.add(now, total)
	for i := range parts {
		s.stages[i] = append(s.stages[i], parts[i])
	}
	if s.tracer != nil {
		req := int64(s.analyses)
		begin := now.Add(-time.Duration(total * 1e6))
		s.tracer.Add("core.analysis", req, 0, begin, now)
		t := begin
		for i := range parts {
			end := t.Add(time.Duration(parts[i] * 1e6))
			s.tracer.Add("core."+core.Stage(i).String(), req, 0, t, end)
			t = end
		}
	}
}

func buildDevice(o Options, calib []*dataset.Sample, ar *arena) (*deviceSystem, error) {
	reps, err := loadReplicas(o.Weights, 1)
	if err != nil {
		return nil, err
	}
	int8, err := detect.Build("yolite-int8", detect.BuildContext{
		Base:    reps[0],
		Samples: func() []*dataset.Sample { return calib },
	})
	if err != nil {
		return nil, err
	}
	ar.used = 0
	s := &deviceSystem{rec: &recorder{inner: int8, arena: ar}}
	s.h = fleet.NewHandset(fleet.HandsetConfig{Seed: o.Seed})
	s.svc = s.h.Start(s.rec)
	s.svc.OnAnalysis = s.onAnalysis
	// Set-up ends with the first completed analysis.
	for vt := time.Second; s.analysesDone() == 0; vt += time.Second {
		if vt > 10*time.Minute {
			return nil, fmt.Errorf("device: no analysis in 10 virtual minutes")
		}
		s.h.Run(vt)
	}
	return s, nil
}

func (s *deviceSystem) analysesDone() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.analyses
}

// phase runs the handset's virtual clock as fast as analyses finish for d
// of wall time and returns when it started and ended.
func (s *deviceSystem) phase(d time.Duration, tracer *Tracer) (start, end time.Time, st0, st1 core.Stats) {
	s.mu.Lock()
	s.observing = true
	s.tracer = tracer
	s.latency = &series{}
	for i := range s.stages {
		s.stages[i] = nil
	}
	s.mu.Unlock()
	st0 = s.svc.Stats()
	start = time.Now()
	vt := s.h.Clock.Now()
	for time.Since(start) < d && !s.rec.full {
		vt += 5 * time.Second
		s.h.Run(vt)
	}
	end = time.Now()
	st1 = s.svc.Stats()
	s.mu.Lock()
	s.observing = false
	s.mu.Unlock()
	return start, end, st0, st1
}

func runDevice(o Options) (*Outcome, error) {
	calib := auigen.BuildAUISamples(calibSeed, calibN, auigen.DatasetConfig{})
	eval, err := evalSet(o.Corpus)
	if err != nil {
		return nil, err
	}
	ar, err := newArena(arenaScreens)
	if err != nil {
		return nil, err
	}
	defer ar.free()

	sys, setup, err := medianSetup(setupRuns, func() (*deviceSystem, error) {
		return buildDevice(o, calib, ar)
	}, func(s *deviceSystem) { s.h.Stop() })
	if err != nil {
		return nil, err
	}
	res := &Outcome{EndToEnd: map[string]Metric{}, Info: map[string]Metric{}}
	res.EndToEnd["setup_s"] = Metric{Value: setup, Unit: "s", N: setupRuns}

	measure := time.Duration(o.Seconds * float64(time.Second))
	var tracer *Tracer
	var untracedP50 float64
	if o.Trace {
		// Half the time untraced, half traced: the difference is the
		// tracing overhead.
		measure /= 2
		sys.phase(measure, nil)
		untracedP50 = quantile(sys.latency.values(), 0.5)
		tracer = newTracer()
	}
	heap := startHeapPeak()
	start, end, st0, st1 := sys.phase(measure, tracer)
	peak := heap.Stop()
	sys.h.Stop()

	lat := sys.latency.values()
	n := len(lat)
	if n == 0 {
		return nil, fmt.Errorf("device: no analyses measured")
	}
	res.EndToEnd["latency_p50_ms"] = Metric{Value: sys.latency.windowed(deviceWindow, 50, 0.5), Unit: "ms", N: n}
	res.Info["latency_p90_ms"] = Metric{Value: sys.latency.windowed(deviceWindow, 50, 0.9), Unit: "ms", N: n}
	res.EndToEnd["throughput_sps"] = Metric{Value: sys.latency.rate(start, end, deviceRateWindow), Unit: "1/s", N: n}
	res.EndToEnd["peak_heap_mb"] = Metric{Value: peak, Unit: "MiB"}

	// Output check: every recorded inference against a direct call to a
	// separately ported yolite-int8 on the same input tensor.
	ref, err := buildInt8Ref(o, calib)
	if err != nil {
		return nil, err
	}
	// A screen seen before (same pixels) is checked against the reference
	// already computed for it.
	conf := yolite.DefaultConfThresh
	mism := 0
	var replay []replayInput
	seen := map[uint64][]dmetrics.Detection{}
	for _, c := range sys.rec.calls {
		if c.off < 0 {
			continue
		}
		want, ok := seen[c.hash]
		if !ok {
			x := sys.rec.input(c)
			if itemKey(x, 0) != c.hash {
				mism++
				continue
			}
			want = ref.PredictTensor(x, 0, conf)
			seen[c.hash] = want
			if o.Trace && len(replay) < 60 {
				replay = append(replay, replayInput{x: x, aui: len(want) > 0, want: want})
			}
		}
		if !sameDets(want, c.dets) {
			mism++
		}
	}
	mism += sys.postBad
	failed := mism + (st1.Degraded - st0.Degraded) + (st1.TimedOut - st0.TimedOut)
	res.Attempted = len(sys.rec.calls) + (st1.Degraded - st0.Degraded) + (st1.TimedOut - st0.TimedOut)
	res.Failed = failed
	res.Mismatches = mism
	res.EndToEnd["ok_ratio"] = Metric{Value: 1 - float64(failed)/float64(max(res.Attempted, 1)), Unit: "ratio", N: res.Attempted}

	scoreEval(res, eval, referenceDets(ref, eval), 1)
	res.Notes = append(res.Notes,
		fmt.Sprintf("analyses %d in %.2fs wall (%d virtual s), AUI-flagged %d, superseded %d",
			n, end.Sub(start).Seconds(), int((sys.h.Clock.Now()).Seconds()), st1.AUIFlagged-st0.AUIFlagged, st1.Superseded-st0.Superseded),
		fmt.Sprintf("output check: %d inferences (%d distinct screens) and %d analyses compared, %d mismatches",
			len(sys.rec.calls), len(seen), sys.analyses, mism))
	if sys.rec.full {
		res.Notes = append(res.Notes, "recording arena filled: the measured phase ended early")
	}

	if !o.Trace {
		return res, nil
	}
	s := samples{}
	if err := replayInt8(ref, replay, 3, conf, s); err != nil {
		return nil, err
	}
	for i := range sys.stages {
		s["core."+core.Stage(i).String()+"_ms"] = sys.stages[i]
	}
	s.add("core.analyses_per_event", float64(st1.Analyses-st0.Analyses)/float64(max(st1.EventsSeen-st0.EventsSeen, 1)))
	s.add("core.superseded", float64(st1.Superseded-st0.Superseded))
	spans := tracer.Spans()
	path := []string{"core.analysis"}
	parentOf := map[string]string{}
	for i := 0; i < int(core.NumStages); i++ {
		name := "core." + core.Stage(i).String()
		path = append(path, name)
		parentOf[name] = "core.analysis"
	}
	linkParents(spans, parentOf)
	b := newBreakdown("device-int8: capture start to act, per analysis", spans, path)
	b.OverheadMS = quantile(lat, 0.5) - untracedP50
	b.DetailOf = "core.infer"
	for _, name := range []string{"quant.forward_ms", "yolite.decode_ms", "yolite.refine_ms", "metrics.nms_ms"} {
		b.Detail = append(b.Detail, row(name, s[name]))
	}
	s.add("trace.overhead_ms", b.OverheadMS)
	s.add("trace.unexplained_ms", b.UnexplainedMS)
	res.Layers = layerMetrics(s)
	res.Breakdown = b
	return res, writeTrace(o, spans, b)
}

// buildInt8Ref ports a second, independent int8 model for reference calls.
func buildInt8Ref(o Options, calib []*dataset.Sample) (*quant.Model, error) {
	bare, err := loadBare(o.Weights)
	if err != nil {
		return nil, err
	}
	return quant.Port(bare, calib), nil
}
