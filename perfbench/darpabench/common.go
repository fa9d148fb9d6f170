package main

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/adversary"
	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/detect"
	dmetrics "repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// Screen kinds. Clean AUI and benign screens are labelled for F1 at the
// paper's IoU 0.9; attacked screens come from the adversary corpus and are
// scored as recall at IoU 0.5 (the attack legally moves the boxes).
const (
	kindAUI = iota
	kindBenign
	kindAttacked
)

// screen is one labelled input at the model's 96x160 resolution.
type screen struct {
	canvas *render.Canvas
	truth  []dataset.Box
	kind   int
}

// The labelled evaluation split every workload scores its backend on is
// rendered from a fixed seed, like a held-out test set: the run seed drives
// the traffic (which screens, in which order, when), so the quality metrics
// move only when detections change.
const (
	evalSeed   = 7001
	evalAUI    = 150
	evalBenign = 150
)

// renderScreens renders nAUI clean-AUI and nBenign benign screens.
func renderScreens(seed int64, nAUI, nBenign int) []screen {
	var out []screen
	for _, s := range auigen.BuildAUISamples(seed*7919+11, nAUI, auigen.DatasetConfig{}) {
		out = append(out, screen{canvas: s.Input, truth: s.Boxes, kind: kindAUI})
	}
	for _, s := range auigen.BuildNegativeSamples(seed*7919+12, nBenign, auigen.DatasetConfig{}) {
		out = append(out, screen{canvas: s.Input, truth: s.Boxes, kind: kindBenign})
	}
	return out
}

// evalSet is the evaluation split: clean-AUI and benign screens from
// evalSeed, then the adversary corpus.
func evalSet(corpus string) ([]screen, error) {
	attacked, err := corpusScreens(corpus)
	if err != nil {
		return nil, err
	}
	return append(renderScreens(evalSeed, evalAUI, evalBenign), attacked...), nil
}

// corpusScreens regenerates the checked-in adversary corpus.
func corpusScreens(path string) ([]screen, error) {
	c, err := adversary.LoadCorpus(path)
	if err != nil {
		return nil, fmt.Errorf("adversary corpus: %w", err)
	}
	var out []screen
	for _, at := range c.Screens(auigen.DatasetConfig{}) {
		out = append(out, screen{canvas: at.Sample.Input, truth: at.Sample.Boxes, kind: kindAttacked})
	}
	return out, nil
}

// quality scores per-screen detections (in each screen's own coordinates,
// scaled by sx/sy relative to the 96x160 labels): F1 at IoU 0.9 over clean
// and benign screens, recall at IoU 0.5 over attacked ones.
func quality(screens []screen, dets [][]dmetrics.Detection, sx, sy float64) (f1, recall float64) {
	clean, attacked := dmetrics.NewEvaluation(), dmetrics.NewEvaluation()
	for i, s := range screens {
		truth := make([]dataset.Box, len(s.truth))
		for j, b := range s.truth {
			truth[j] = dataset.Box{Class: b.Class, B: b.B.Scale(sx, sy)}
		}
		if s.kind == kindAttacked {
			attacked.AddSample(dets[i], truth, 0.5)
		} else {
			clean.AddSample(dets[i], truth, dmetrics.PaperIoUThreshold)
		}
	}
	return clean.All().F1(), attacked.All().Recall()
}

// scoreEval sets f1_iou90 and attacked_recall_iou50 from the backend's
// detections on the evaluation split, given in coordinates scale times the
// labels'.
func scoreEval(res *Outcome, eval []screen, dets [][]dmetrics.Detection, scale float64) {
	f1, rec := quality(eval, dets, scale, scale)
	attacked := countKind(eval, kindAttacked)
	res.EndToEnd["f1_iou90"] = Metric{Value: f1, Unit: "ratio", N: len(eval) - attacked}
	res.EndToEnd["attacked_recall_iou50"] = Metric{Value: rec, Unit: "ratio", N: attacked}
}

func countKind(screens []screen, k int) int {
	n := 0
	for _, s := range screens {
		if s.kind == k {
			n++
		}
	}
	return n
}

// referenceDets runs a bare backend on every screen, on all CPUs.
func referenceDets(p yolite.Predictor, screens []screen) [][]dmetrics.Detection {
	out := make([][]dmetrics.Detection, len(screens))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(screens); i = int(next.Add(1) - 1) {
				out[i] = p.PredictTensor(yolite.CanvasToTensor(screens[i].canvas), 0, yolite.DefaultConfThresh)
			}
		}()
	}
	wg.Wait()
	return out
}

// loadReplicas builds n float yolite replicas through the registry exactly
// as darpa-serve does, except that the build context carries no training
// samples: a missing or unloadable weights/yolite.gob is an error instead
// of a silently trained fallback model.
func loadReplicas(dir string, n int) ([]detect.Detector, error) {
	reps, err := detect.BuildReplicas("yolite", detect.BuildContext{WeightsDir: dir}, n)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", filepath.Join(dir, "yolite.gob"), err)
	}
	return reps, nil
}

// loadBare loads one float model for reference calls, failing fast.
func loadBare(dir string) (*yolite.Model, error) {
	reps, err := loadReplicas(dir, 1)
	if err != nil {
		return nil, err
	}
	m, ok := reps[0].(*yolite.Model)
	if !ok {
		return nil, fmt.Errorf("registry yolite backend is %T, not *yolite.Model", reps[0])
	}
	return m, nil
}

// sameDets reports bit-identical detection lists.
func sameDets(a, b []dmetrics.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Class != b[i].Class || a[i].Score != b[i].Score || a[i].B != b[i].B {
			return false
		}
	}
	return true
}

func copyDets(d []dmetrics.Detection) []dmetrics.Detection {
	return append([]dmetrics.Detection(nil), d...)
}

var keySeed = maphash.MakeSeed()

// itemKey identifies one batch item's pixels, so spans recorded on a batch
// inside the serving stack can be matched to the requests it carried.
func itemKey(x *tensor.Tensor, n int) uint64 {
	per := len(x.Data) / x.Shape[0]
	item := x.Data[n*per : (n+1)*per]
	b := unsafe.Slice((*byte)(unsafe.Pointer(&item[0])), len(item)*4)
	return maphash.Bytes(keySeed, b)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapPeak samples the Go heap (live and not-yet-collected objects) every
// 5ms until stopped, and reports the peak in MiB.
type heapPeak struct {
	stop chan struct{}
	done chan float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := uint64(0)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				h.done <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) Stop() float64 {
	close(h.stop)
	return <-h.done
}

// medianSetup runs build k times and reports the median wall time; every
// instance but the last is torn down, the last is returned for measuring.
func medianSetup[T any](k int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < k; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < k-1 {
			teardown(v)
		} else {
			last = v
		}
	}
	return last, quantile(times, 0.5), nil
}

// setupRuns is how many times each workload builds its system under test;
// setup_s is their median.
const setupRuns = 15

// openLoop fires send at Poisson arrivals of the given rate for d, each on
// its own goroutine, and waits for all of them. send receives the arrival's
// index and its due time; lateness is how far behind schedule each arrival
// was dispatched.
func openLoop(rng *rand.Rand, rate float64, d time.Duration, send func(i int, due time.Time)) (lateness []float64) {
	var wg sync.WaitGroup
	start := time.Now()
	next := start
	for i := 0; ; i++ {
		next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if next.Sub(start) >= d {
			break
		}
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		lateness = append(lateness, ms(time.Since(next)))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			send(i, due)
		}(i, next)
	}
	wg.Wait()
	return lateness
}

// series collects timestamped samples — a completion time and a value —
// from many goroutines.
type series struct {
	mu sync.Mutex
	at []time.Time
	v  []float64
}

func (s *series) add(at time.Time, v float64) {
	s.mu.Lock()
	s.at = append(s.at, at)
	s.v = append(s.v, v)
	s.mu.Unlock()
}

func (s *series) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// The machines this runs on share their CPUs, and another tenant's burst
// slows every layer at once for a second or more. Timings are therefore
// reduced per window of wall time and the median window is reported: a
// burst covering fewer than half the windows of a run does not move it.
const minWindows = 5

// windowed returns the median over consecutive windows of length w (by
// completion time) of each window's q-quantile, counting only windows with
// at least minN samples. With fewer than minWindows such windows it returns
// the pooled q-quantile.
func (s *series) windowed(w time.Duration, minN int, q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.at) == 0 {
		return 0
	}
	t0 := s.at[0]
	for _, t := range s.at {
		if t.Before(t0) {
			t0 = t
		}
	}
	byWin := map[int64][]float64{}
	for i, t := range s.at {
		k := int64(t.Sub(t0) / w)
		byWin[k] = append(byWin[k], s.v[i])
	}
	var per []float64
	for _, xs := range byWin {
		if len(xs) >= minN {
			per = append(per, quantile(xs, q))
		}
	}
	if len(per) < minWindows {
		return quantile(s.v, q)
	}
	return quantile(per, 0.5)
}

// capacityQuantile is the quantile of the window rates rate reports. On a
// shared host the other tenants' load slows a run for seconds at a time,
// and a slowdown only ever lowers a window's rate: the fast windows are
// the rate the program reaches when it has the CPUs to itself, and a change
// to the program moves every window alike. On a 2-vCPU Xeon, with one
// busy-looping process switched on and off every few seconds beside it,
// the median window of fleet-cached's capacity phase spread by a quarter
// between runs and the 90th-percentile window by a twentieth.
const capacityQuantile = 0.9

// rate returns the capacityQuantile-quantile over the whole windows of
// length w in [start, end) of each window's completion rate, measured
// between the window's first and last completion.
func (s *series) rate(start, end time.Time, w time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int(end.Sub(start) / w)
	first := make([]time.Time, n)
	last := make([]time.Time, n)
	counts := make([]int, n)
	for _, t := range s.at {
		k := int(t.Sub(start) / w)
		if t.Before(start) || k >= n {
			continue
		}
		if counts[k] == 0 || t.Before(first[k]) {
			first[k] = t
		}
		if t.After(last[k]) {
			last[k] = t
		}
		counts[k]++
	}
	var rates []float64
	for k, c := range counts {
		if span := last[k].Sub(first[k]); c > 1 && span > 0 {
			rates = append(rates, float64(c-1)/span.Seconds())
		}
	}
	if len(rates) == 0 {
		return float64(len(s.at)) / end.Sub(start).Seconds()
	}
	return quantile(rates, capacityQuantile)
}
