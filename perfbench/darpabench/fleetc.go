package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	dmetrics "repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// fleet-cached shape, after internal/fleet's: caches of 4x the library per
// replica, batches of up to 64 with a 200µs straggler wait, and 2x MaxBatch
// closed-loop clients. The library holds fleetLibrary screens per class
// that devices resubmit; one request in fleetFreshShare is a screen from
// outside it, which misses, inserts and, once a replica has taken 2x the
// library in such screens, evicts (and so makes a library screen miss
// again). The share is small enough that a miss's forward, which every
// request batched or queued behind it waits for, stays out of the 90th
// percentile: at 800 requests/s it holds up about one request in forty.
const (
	fleetLibrary    = 16
	fleetMaxBatch   = 64
	fleetMaxDelay   = 200 * time.Microsecond
	fleetClients    = 2 * fleetMaxBatch
	fleetFreshShare = 0.0025
	// fleetSlices is how many fleets one run measures in turn, each with
	// its own seeded library on a freshly built stack. The cache spreads
	// keys over 8-entry shards by a hash seeded afresh in every process,
	// so which library screens share a shard is chance, and about one
	// layout in eight puts 8 or more of them in one shard, which then
	// evicts its own hot screens and misses continuously: 6-7% misses
	// instead of about 0.5%, and close to half the capacity. One library
	// per run would report one draw of that chance; the mean over
	// fleetSlices libraries reports its expectation.
	fleetSlices = 8
	// fleetOpenRate is the open-loop arrival rate, under a tenth of the
	// closed-loop capacity measured on a 2-vCPU Xeon (see httpOpenRate).
	fleetOpenRate = 800.0
)

var fleetTenants = [2]context.Context{
	serve.WithTenant(context.Background(), serve.TenantInfo{ID: "tenant0", Priority: serve.PriorityLive}),
	serve.WithTenant(context.Background(), serve.TenantInfo{ID: "tenant1", Priority: serve.PriorityBatch}),
}

type fleetSystem struct {
	batcher *serve.Batcher
	caches  []*detect.Cache
}

func (f *fleetSystem) close() { f.batcher.Close() }

func (f *fleetSystem) cacheCounts() (hits, misses int) {
	for _, c := range f.caches {
		hits += c.Hits()
		misses += c.Misses()
	}
	return hits, misses
}

// buildFleet assembles the stack internal/fleet builds: one result cache
// per replica, each replica with a private activation pool, and a
// two-tenant admission table (tenant0 live, tenant1 batch priority) in
// front of the batcher. With a tracer, wrappers record spans around each
// cache (serve.replica) and around the model under it (detect.forward).
func buildFleet(o Options, replicas int, tr *Tracer, first *tensor.Tensor) (*fleetSystem, error) {
	reps, err := loadReplicas(o.Weights, replicas)
	if err != nil {
		return nil, err
	}
	f := &fleetSystem{}
	backends := make([]detect.Predictor, len(reps))
	for i, r := range reps {
		m, ok := r.(*yolite.Model)
		if !ok {
			return nil, fmt.Errorf("registry yolite backend is %T", r)
		}
		m.SetPool(tensor.NewPool())
		var inner detect.Detector = m
		if tr != nil {
			inner = &batchSpans{inner: m, tr: tr, name: "detect.forward"}
		}
		c := detect.WithResultCache(inner, 4*fleetLibrary)
		f.caches = append(f.caches, c)
		backends[i] = c
		if tr != nil {
			backends[i] = &batchSpans{inner: c, tr: tr, name: "serve.replica"}
		}
	}
	f.batcher = serve.NewReplicated(serve.Options{
		MaxBatch: fleetMaxBatch,
		MaxDelay: fleetMaxDelay,
		Tenants: map[serve.TenantID]serve.TenantConfig{
			"tenant0": {Priority: serve.PriorityLive},
			"tenant1": {Priority: serve.PriorityBatch},
		},
	}, backends...)
	// Set-up ends with the first answered request.
	if _, err := f.batcher.PredictTensorCtx(fleetTenants[0], first, 0, yolite.DefaultConfThresh); err != nil {
		f.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return f, nil
}

// fleetLoad picks screens and checks every answer against the reference.
type fleetLoad struct {
	sys    *fleetSystem
	xs     []*tensor.Tensor
	keys   []uint64
	want   [][]dmetrics.Detection
	libs   [][]int // each fleet's library screen indices
	lib    []int   // the running fleet's library
	fresh  []int   // screens from outside the libraries
	evalAt int     // index of the first evaluation screen
	nextFr atomic.Int64
	reqs   atomic.Int64
	lat    *series
	tracer *Tracer

	mu     sync.Mutex
	tried  int
	failed int
	mism   int
	errs   []string
}

// pick returns the next screen: mostly a library repeat, one in
// fleetFreshShare a screen from outside the library, in turn.
func (l *fleetLoad) pick(rng *rand.Rand) int {
	if rng.Float64() < fleetFreshShare {
		return l.fresh[int(l.nextFr.Add(1)-1)%len(l.fresh)]
	}
	return l.lib[rng.Intn(len(l.lib))]
}

func (l *fleetLoad) one(i, tenant int, due time.Time) {
	req := l.reqs.Add(1) - 1
	t0 := time.Now()
	dets, err := l.sys.batcher.PredictTensorCtx(fleetTenants[tenant], l.xs[i], 0, yolite.DefaultConfThresh)
	done := time.Now()
	if l.tracer != nil {
		l.tracer.Add("fleet.request", req, 0, due, done)
		l.tracer.Add("serve.batcher", req, l.keys[i], t0, done)
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
	case !sameDets(dets, l.want[i]):
		l.failed++
		l.mism++
	default:
		l.lat.add(done, ms(done.Sub(due)))
	}
}

func (l *fleetLoad) closed(seed int64, d time.Duration) int {
	start := time.Now()
	var wg sync.WaitGroup
	var n atomic.Int64
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
			for time.Since(start) < d {
				l.one(l.pick(rng), c%2, time.Now())
				n.Add(1)
			}
		}(c)
	}
	wg.Wait()
	return int(n.Load())
}

// Windows the fleet-cached timings are reduced over: about two thousand
// completions in the closed loop, 400 arrivals in the open loop.
const (
	fleetClosedWindow = 250 * time.Millisecond
	fleetOpenWindow   = 500 * time.Millisecond
)

// phases runs the closed-loop capacity phase (half of d), then the
// open-loop phase at fleetOpenRate, whose latencies go to open; beforeOpen
// runs between the two. It returns the capacity, the closed-loop request
// count and the open loop's dispatch lateness.
func (l *fleetLoad) phases(seed int64, rng *rand.Rand, d time.Duration, open *series, beforeOpen func()) (tput float64, n int, late []float64) {
	closedDur := d / 2
	l.lat = &series{}
	start := time.Now()
	n = l.closed(seed, closedDur)
	tput = l.lat.rate(start, start.Add(closedDur), fleetClosedWindow)
	l.lat = open
	if beforeOpen != nil {
		beforeOpen()
	}
	return tput, n, l.open(rng, d-closedDur)
}

func (l *fleetLoad) open(rng *rand.Rand, d time.Duration) []float64 {
	pick := rand.New(rand.NewSource(rng.Int63()))
	var mu sync.Mutex
	return openLoop(rng, fleetOpenRate, d, func(k int, due time.Time) {
		mu.Lock()
		i := l.pick(pick)
		mu.Unlock()
		l.one(i, k%2, due)
	})
}

// warm requests every library screen once, so timing starts on a filled
// cache.
func (l *fleetLoad) warm() error {
	for _, i := range l.lib {
		if _, err := l.sys.batcher.PredictTensorCtx(fleetTenants[0], l.xs[i], 0, yolite.DefaultConfThresh); err != nil {
			return err
		}
	}
	return nil
}

func runFleet(o Options) (*Outcome, error) {
	// The seeded libraries are what devices resubmit, fleetLibrary AUI and
	// fleetLibrary benign screens each; the screens from outside them are
	// the evaluation split, scored on the reference results every answer
	// is checked against.
	eval, err := evalSet(o.Corpus)
	if err != nil {
		return nil, err
	}
	bare, err := loadBare(o.Weights)
	if err != nil {
		return nil, err
	}
	n := fleetSlices * fleetLibrary
	screens := append(renderScreens(o.Seed, n, n), eval...)
	l := &fleetLoad{want: referenceDets(bare, screens), lat: &series{}, evalAt: 2 * n}
	for i, s := range screens {
		x := yolite.CanvasToTensor(s.canvas)
		l.xs = append(l.xs, x)
		l.keys = append(l.keys, itemKey(x, 0))
		if i >= l.evalAt {
			l.fresh = append(l.fresh, i)
		}
	}
	for j := 0; j < fleetSlices; j++ {
		var lib []int
		for i := j * fleetLibrary; i < (j+1)*fleetLibrary; i++ {
			lib = append(lib, i, n+i) // an AUI screen and a benign one
		}
		l.libs = append(l.libs, lib)
	}
	l.lib = l.libs[0]
	rng := rand.New(rand.NewSource(o.Seed))
	rng.Shuffle(len(l.fresh), func(i, j int) { l.fresh[i], l.fresh[j] = l.fresh[j], l.fresh[i] })
	replicas := runtime.NumCPU()

	res := &Outcome{EndToEnd: map[string]Metric{}, Info: map[string]Metric{}, Rates: map[string]float64{"fleet-cached": fleetOpenRate}}
	sys, setup, err := medianSetup(setupRuns, func() (*fleetSystem, error) {
		return buildFleet(o, replicas, nil, l.xs[l.lib[0]])
	}, (*fleetSystem).close)
	if err != nil {
		return nil, err
	}
	res.EndToEnd["setup_s"] = Metric{Value: setup, Unit: "s", N: setupRuns}
	l.sys = sys
	if err := l.warm(); err != nil {
		return nil, err
	}

	total := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		return traceFleet(o, res, l, replicas, rng, total, bare, screens)
	}
	// Each fleet runs for an equal share of the run; its stack is built
	// and its library warmed outside the timed phases.
	heap := startHeapPeak()
	open := &series{}
	var tputs, late []float64
	var closedN, hits, misses int
	for j, lib := range l.libs {
		l.lib = lib
		if j > 0 {
			if sys, err = buildFleet(o, replicas, nil, l.xs[lib[0]]); err != nil {
				return nil, err
			}
			l.sys = sys
			if err := l.warm(); err != nil {
				sys.close()
				return nil, err
			}
		}
		var h0, m0 int
		tput, k, lt := l.phases(o.Seed*fleetSlices+int64(j), rng, total/fleetSlices, open, func() { h0, m0 = sys.cacheCounts() })
		h1, m1 := sys.cacheCounts()
		sys.close()
		tputs, late = append(tputs, tput), append(late, lt...)
		closedN, hits, misses = closedN+k, hits+h1-h0, misses+m1-m0
	}
	peak := heap.Stop()
	res.EndToEnd["throughput_sps"] = Metric{Value: mean(tputs), Unit: "1/s", N: closedN}

	lat := open.values()
	if len(lat) == 0 {
		return nil, fmt.Errorf("fleet-cached: no successful open-loop request (%v)", l.errs)
	}
	res.EndToEnd["latency_p50_ms"] = Metric{Value: open.windowed(fleetOpenWindow, 200, 0.5), Unit: "ms", N: len(lat)}
	res.Info["latency_p90_ms"] = Metric{Value: open.windowed(fleetOpenWindow, 200, 0.9), Unit: "ms", N: len(lat)}
	res.EndToEnd["peak_heap_mb"] = Metric{Value: peak, Unit: "MiB"}
	finishFleet(res, l, screens)
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d fleets of %d library screens; capacity per fleet (1/s): %.0f", fleetSlices, 2*fleetLibrary, tputs),
		fmt.Sprintf("closed loop: %d clients, %d requests; open loop: %d arrivals, generator late p90 %.3f ms",
			fleetClients, closedN, len(late), quantile(late, 0.9)),
		fmt.Sprintf("open-loop cache hit ratio %.4f (%d hits, %d misses)", float64(hits)/float64(max(hits+misses, 1)), hits, misses))
	return res, nil
}

// finishFleet fills the counts and scores the backend's answers (pinned to
// the reference by the output check) on the labelled screens.
func finishFleet(res *Outcome, l *fleetLoad, screens []screen) {
	res.Attempted, res.Failed, res.Mismatches = l.tried, l.failed, l.mism
	res.EndToEnd["ok_ratio"] = Metric{Value: 1 - float64(l.failed)/float64(max(l.tried, 1)), Unit: "ratio", N: l.tried}
	scoreEval(res, screens[l.evalAt:], l.want[l.evalAt:], 1)
	res.Notes = append(res.Notes, fmt.Sprintf("output check: %d answers compared with the bare model, %d mismatches, %d failed",
		l.tried, l.mism, l.failed))
	for _, e := range l.errs {
		res.Notes = append(res.Notes, "error: "+e)
	}
}

func traceFleet(o Options, res *Outcome, l *fleetLoad, replicas int, rng *rand.Rand, total time.Duration,
	bare *yolite.Model, screens []screen) (*Outcome, error) {
	// One fleet, on the first library, untraced and then traced.
	open := &series{}
	l.phases(o.Seed, rng, total/2, open, nil)
	untraced := quantile(open.values(), 0.5)
	l.sys.close()

	tr := newTracer()
	sys, err := buildFleet(o, replicas, tr, l.xs[l.lib[0]])
	if err != nil {
		return nil, err
	}
	l.sys = sys
	if err := l.warm(); err != nil {
		return nil, err
	}
	var h0, m0 int
	var st0 serve.Stats
	_, _, late := l.phases(o.Seed, rng, total/2, &series{}, func() {
		tr.Reset()
		l.tracer = tr
		h0, m0 = sys.cacheCounts()
		st0 = sys.batcher.Stats()
	})
	h1, m1 := sys.cacheCounts()
	st1 := sys.batcher.Stats()
	sys.close()
	finishFleet(res, l, screens)

	spans := tr.Spans()
	s := samples{}
	// Cache cost per item: the replica wrapper's time minus the forward
	// under the cache, over the items of each batch.
	type iv struct{ a, b float64 }
	outer := map[iv]int{}
	inner := map[iv]bool{}
	for _, sp := range spans {
		switch sp.Name {
		case "serve.replica":
			outer[iv{sp.Start, sp.End}]++
		case "detect.forward":
			inner[iv{sp.Start, sp.End}] = true
		}
	}
	for o, items := range outer {
		fwd := 0.0
		for in := range inner {
			if in.a >= o.a && in.b <= o.b {
				fwd += in.b - in.a
			}
		}
		s.add("detect.cache_hit_us", 1000*(o.b-o.a-fwd)/float64(items))
	}
	spans, own := attachBatches(spans, "serve.batcher", "serve.replica", "detect.forward")
	linkParents(spans, map[string]string{
		"serve.batcher":  "fleet.request",
		"serve.queue":    "serve.batcher",
		"serve.replica":  "serve.batcher",
		"detect.forward": "serve.replica",
	})
	self := selfTimes(spans)
	for _, sp := range spans {
		if sp.Req < 0 {
			continue
		}
		d := sp.End - sp.Start
		switch sp.Name {
		case "fleet.request":
			if own[sp.Req] {
				s.add("fleet.miss_latency_p50_ms", d)
			} else {
				s.add("fleet.hit_latency_p50_ms", d)
			}
		case "serve.batcher":
			if sp.Req%2 == 0 {
				s.add("serve.live_p50_ms", d)
			} else {
				s.add("serve.batch_tier_p50_ms", d)
			}
		case "serve.replica":
			s.add("serve.forward_ms", d)
		}
	}
	s["serve.queue_wait_ms"] = self["serve.queue"]
	s.add("serve.batch_size", float64(st1.Items-st0.Items)/float64(max(st1.Batches-st0.Batches, 1)))
	s.add("serve.shed_ratio", float64(st1.Shed-st0.Shed)/float64(max(st1.Offered-st0.Offered, 1)))
	s.add("detect.cache_hit_ratio", float64(h1-h0)/float64(max(h1-h0+m1-m0, 1)))
	s["gen.late_p90_ms"] = late

	var inputs []replayInput
	for _, i := range rng.Perm(len(screens))[:60] {
		inputs = append(inputs, replayInput{x: l.xs[i], aui: screens[i].kind != kindBenign, want: l.want[i]})
	}
	if err := replayFloat(bare, inputs, 3, yolite.DefaultConfThresh, s); err != nil {
		return nil, err
	}

	b := newBreakdown("fleet-cached: request due to answer, open loop", spans,
		[]string{"fleet.request", "serve.batcher", "serve.queue", "serve.replica", "detect.forward"})
	b.OverheadMS = b.MedianMS - untraced
	b.DetailOf = "detect.forward (a miss in the batch)"
	for _, name := range []string{"yolite.B1_ms", "yolite.B2_ms", "yolite.B3_ms", "yolite.B3b_ms", "yolite.B4_ms", "yolite.B5_ms",
		"yolite.upo_head_ms", "yolite.ago_head_ms", "yolite.decode_ms", "yolite.refine_ms", "metrics.nms_ms"} {
		b.Detail = append(b.Detail, row(name, s[name]))
	}
	s.add("trace.overhead_ms", b.OverheadMS)
	s.add("trace.unexplained_ms", b.UnexplainedMS)
	res.Layers = layerMetrics(s)
	res.Breakdown = b
	return res, writeTrace(o, spans, b)
}
