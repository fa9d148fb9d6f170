package main

import (
	"bytes"
	"fmt"
	"image/png"
	"time"

	dmetrics "repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/render"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// The model layers, named as in yolite.Model.
var blockNames = [6]string{"B1", "B2", "B3", "B3b", "B4", "B5"}

// samples collects per-layer measurements by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) addDur(name string, d time.Duration) { s.add(name, ms(d)) }

// replayInput is one recorded model input with its share label.
type replayInput struct {
	x    *tensor.Tensor // [1, 3, 160, 96]
	aui  bool           // AUI share (labelled AUI, or flagged on device)
	want []dmetrics.Detection
}

// replayFloat re-runs the float forward block by block — rebuilt from
// nn.ConvBNActParts and tensor.FuseConvBNAct like yolite's own inference
// path — and the post-processing step by step, timing each layer. Every
// result must equal the model's PredictTensor on the same input; a
// mismatch is an error (the replay would be timing something else).
func replayFloat(m *yolite.Model, inputs []replayInput, reps int, conf float64, out samples) error {
	seqs := [6]*nn.Sequential{m.B1, m.B2, m.B3, m.B3b, m.B4, m.B5}
	var fb [6]*tensor.FusedConvBNAct
	for i, s := range seqs {
		fb[i] = tensor.FuseConvBNAct(nn.ConvBNActParts(s))
	}
	flops := blockFLOPs(fb)
	for r := 0; r < reps; r++ {
		for i, in := range inputs {
			h := in.x
			var f8, h5 *tensor.Tensor
			for b := range fb {
				src := h
				if b == 4 {
					src = f8
				}
				t0 := time.Now()
				h = fb[b].ForwardPooled(src, nil)
				d := time.Since(t0)
				out.addDur("yolite."+blockNames[b]+"_ms", d)
				out.add("tensor."+blockNames[b]+"_gflops", flops[b]/d.Seconds()/1e9)
				switch b {
				case 3:
					f8 = h
				case 5:
					h5 = h
				}
			}
			t0 := time.Now()
			upo := m.UPOHead.ForwardPooled(f8, nil)
			out.addDur("yolite.upo_head_ms", time.Since(t0))
			t0 = time.Now()
			ago := m.AGOHead.ForwardPooled(h5, nil)
			out.addDur("yolite.ago_head_ms", time.Since(t0))
			dets := replayPost(in.x, upo, ago, conf, in.aui, out)
			if r == 0 && !sameDets(dets, in.want) {
				return fmt.Errorf("float layer replay of input %d differs from PredictTensor", i)
			}
		}
	}
	return nil
}

// replayInt8 times quant.Model.Forward and the shared post-processing on
// the recorded inputs, checking the result against qm.PredictTensor.
func replayInt8(qm *quant.Model, inputs []replayInput, reps int, conf float64, out samples) error {
	for r := 0; r < reps; r++ {
		for i, in := range inputs {
			t0 := time.Now()
			upo, ago := qm.Forward(in.x)
			out.addDur("quant.forward_ms", time.Since(t0))
			dets := replayPost(in.x, upo, ago, conf, in.aui, out)
			if r == 0 && !sameDets(dets, in.want) {
				return fmt.Errorf("int8 layer replay of input %d differs from PredictTensor", i)
			}
		}
	}
	return nil
}

// replayPost is yolite's decodeItem step by step: decode both heads,
// edge-snap refine, NMS.
func replayPost(x, upo, ago *tensor.Tensor, conf float64, aui bool, out samples) []dmetrics.Detection {
	t0 := time.Now()
	dets := yolite.DecodeHead(upo, 0, yolite.UPOHeadSpec, conf)
	dets = append(dets, yolite.DecodeHead(ago, 0, yolite.AGOHeadSpec, conf)...)
	out.addDur("yolite.decode_ms", time.Since(t0))
	out.add("yolite.dets_pre_nms", float64(len(dets)))
	t0 = time.Now()
	dets = yolite.RefineDetections(dets, yolite.LumaPlane(x, 0), yolite.InputW, yolite.InputH)
	d := time.Since(t0)
	out.addDur("yolite.refine_ms", d)
	if aui {
		out.addDur("yolite.refine_aui_ms", d)
	} else {
		out.addDur("yolite.refine_benign_ms", d)
	}
	t0 = time.Now()
	dets = dmetrics.NMS(dets, 0.2)
	out.addDur("metrics.nms_ms", time.Since(t0))
	out.add("yolite.dets_post_nms", float64(len(dets)))
	return dets
}

// blockFLOPs computes each fused block's multiply-add work for one 96x160
// input from the layer shapes (2 FLOPs per MAC). It is derived, not
// measured.
func blockFLOPs(fb [6]*tensor.FusedConvBNAct) [6]float64 {
	var out [6]float64
	h, w := yolite.InputH, yolite.InputW
	var h8, w8 int
	for b, f := range fb {
		if b == 4 {
			h, w = h8, w8
		}
		oh, ow := f.OutSize(h, w)
		out[b] = 2 * float64(f.OutC*oh*ow) * float64(f.InC*f.K*f.K)
		h, w = oh, ow
		if b == 3 {
			h8, w8 = oh, ow
		}
	}
	return out
}

// replayRender times the request decoding path of the HTTP handler on the
// recorded bodies: PNG decode, image to canvas, downscale, canvas to
// tensor. The tensor must equal yolite.CanvasToTensor of the full canvas.
func replayRender(bodies [][]byte, reps int, out samples) error {
	for r := 0; r < reps; r++ {
		for i, body := range bodies {
			t0 := time.Now()
			img, err := png.Decode(bytes.NewReader(body))
			if err != nil {
				return err
			}
			out.addDur("render.png_decode_ms", time.Since(t0))
			t0 = time.Now()
			c := render.FromImage(img)
			out.addDur("render.from_image_ms", time.Since(t0))
			t0 = time.Now()
			small := c.Downscale(yolite.InputW, yolite.InputH)
			out.addDur("render.downscale_ms", time.Since(t0))
			t0 = time.Now()
			x := yolite.CanvasToTensor(small)
			out.addDur("yolite.to_tensor_ms", time.Since(t0))
			if r == 0 {
				want := yolite.CanvasToTensor(c)
				for j := range want.Data {
					if want.Data[j] != x.Data[j] {
						return fmt.Errorf("render replay of body %d differs from CanvasToTensor", i)
					}
				}
			}
		}
	}
	return nil
}
