package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// layerSpec is one per-layer metric: its unit and how its samples reduce
// to a value.
type layerSpec struct {
	name, unit string
	mean       bool // counts and ratios average; times take the median
}

// layerSpecs is the per-layer vocabulary, shared by every workload. A layer
// a workload does not run reads 0 on that workload.
var layerSpecs = func() []layerSpec {
	var s []layerSpec
	t := func(name string) { s = append(s, layerSpec{name: name, unit: "ms"}) }
	c := func(name, unit string) { s = append(s, layerSpec{name: name, unit: unit, mean: true}) }
	for _, st := range []string{"capture", "preprocess", "infer", "postprocess", "act"} {
		t("core." + st + "_ms")
	}
	c("core.analyses_per_event", "ratio")
	c("core.superseded", "count")
	t("quant.forward_ms")
	for _, b := range blockNames {
		t("yolite." + b + "_ms")
	}
	t("yolite.upo_head_ms")
	t("yolite.ago_head_ms")
	for _, b := range blockNames {
		s = append(s, layerSpec{name: "tensor." + b + "_gflops", unit: "GFLOP/s"})
	}
	t("yolite.decode_ms")
	t("yolite.refine_ms")
	t("yolite.refine_aui_ms")
	t("yolite.refine_benign_ms")
	t("metrics.nms_ms")
	c("yolite.dets_pre_nms", "count")
	c("yolite.dets_post_nms", "count")
	t("render.png_decode_ms")
	t("render.from_image_ms")
	t("render.downscale_ms")
	t("yolite.to_tensor_ms")
	t("httpd.handler_ms")
	t("httpd.self_ms")
	t("http.transport_ms")
	t("serve.queue_wait_ms")
	c("serve.batch_size", "count")
	t("serve.forward_ms")
	t("serve.live_p50_ms")
	t("serve.batch_tier_p50_ms")
	c("serve.shed_ratio", "ratio")
	c("detect.cache_hit_ratio", "ratio")
	s = append(s, layerSpec{name: "detect.cache_hit_us", unit: "us"})
	t("fleet.hit_latency_p50_ms")
	t("fleet.miss_latency_p50_ms")
	t("gen.late_p90_ms")
	c("trace.overhead_ms", "ms")
	c("trace.unexplained_ms", "ms")
	return s
}()

// layerMetrics reduces the collected samples to the per-layer metric set.
// Samples under names ending in _p50_ms or _p90_ms are reduced at that
// quantile; other times take the median.
func layerMetrics(s samples) map[string]Metric {
	out := make(map[string]Metric, len(layerSpecs))
	for _, sp := range layerSpecs {
		xs := s[sp.name]
		v := 0.0
		switch {
		case len(xs) == 0:
		case sp.mean:
			v = mean(xs)
		case strings.HasSuffix(sp.name, "_p90_ms"):
			v = quantile(xs, 0.9)
		default:
			v = quantile(xs, 0.5)
		}
		out[sp.name] = Metric{Value: v, Unit: sp.unit, N: len(xs)}
	}
	for name := range s {
		if _, ok := out[name]; !ok {
			panic("darpabench: unregistered per-layer metric " + name)
		}
	}
	return out
}

func printReport(w io.Writer, o Options, p *Provenance, r *Outcome) {
	fmt.Fprintf(w, "darpabench %s seed %d, %.0fs measured, trace %v\n", o.Workload, o.Seed, o.Seconds, o.Trace)
	fmt.Fprintf(w, "  commit %s (dirty %s), source %.12s, weights %.12s\n", p.Commit, p.Dirty, p.SourceSHA256, p.WeightsSHA)
	fmt.Fprintf(w, "  %s, nproc %d, GOMAXPROCS %d, %s, wall %.1fs\n", p.CPU, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.WallS)
	if len(p.Rates) > 0 {
		keys := make([]string, 0, len(p.Rates))
		for k := range p.Rates {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  open-loop rate %s: %.0f/s\n", k, p.Rates[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "end-to-end metrics:\n")
	for _, name := range endToEndNames {
		m, ok := r.EndToEnd[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-24s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	for name, m := range r.Info {
		fmt.Fprintf(w, "  %-24s %14.6g %-6s n=%d (not gated)\n", name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "  %-24s %14.6g %-6s n=%d (failed %d, of which output mismatches %d)\n",
		"failed_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio", r.Attempted, r.Failed, r.Mismatches)
	if r.Layers != nil {
		fmt.Fprintf(w, "per-layer metrics:\n")
		for _, sp := range layerSpecs {
			m := r.Layers[sp.name]
			fmt.Fprintf(w, "  %-28s %14.6g %-8s n=%d\n", sp.name, m.Value, m.Unit, m.N)
		}
	}
	if r.Breakdown != nil {
		r.Breakdown.print(w)
	}
}
