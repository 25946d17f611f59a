package core

import (
	"amdgpubench/internal/device"
	"amdgpubench/internal/il"
)

// This file wires each paper figure to its exact configuration, so the
// CLI, the benchmarks and EXPERIMENTS.md all regenerate the same curves.
// Every figure is a FigureSpec builder; the campaign registry
// (internal/campaign) names them, and every front end runs them as
// campaign plans.

// named stamps a figure's canonical ID and title on its spec.
func named(spec FigureSpec, err error, id, title string) (FigureSpec, error) {
	if err != nil {
		return FigureSpec{}, err
	}
	spec.Fig.ID, spec.Fig.Title = id, title
	return spec, nil
}

// Fig7Spec plans the ALU:Fetch ratio sweep with texture-fetch inputs: 16
// inputs, one output, domain 1024x1024, ratios 0.25..8.0 step 0.25, every
// chip in pixel and (naive 64x1) compute mode, float and float4.
func (s *Suite) Fig7Spec() (FigureSpec, error) {
	spec, err := s.ALUFetchSpec(ALUFetchConfig{})
	return named(spec, err, "fig7", "ALU:Fetch Ratio for 16 Inputs")
}

// Fig8Spec repeats Fig. 7's compute-mode series with the optimized 4x16
// block.
func (s *Suite) Fig8Spec() (FigureSpec, error) {
	spec, err := s.ALUFetchSpec(ALUFetchConfig{Cards: ComputeCards(4, 16)})
	return named(spec, err, "fig8", "ALU:Fetch Ratio for 16 Inputs with Block Size of 4x16")
}

// Fig9Spec plans the ALU:Fetch sweep with global-memory reads and
// streaming stores, pixel mode only.
func (s *Suite) Fig9Spec() (FigureSpec, error) {
	spec, err := s.ALUFetchSpec(ALUFetchConfig{
		Cards:      PixelCards(),
		InputSpace: il.GlobalSpace,
		OutSpace:   il.TextureSpace,
	})
	return named(spec, err, "fig9", "ALU:Fetch Ratio Global Read Stream Write")
}

// Fig10Spec plans the ALU:Fetch sweep with global reads and global writes,
// on the GDDR5 chips in both modes (the configuration the paper plots).
func (s *Suite) Fig10Spec() (FigureSpec, error) {
	var cards []Card
	for _, a := range []device.Arch{device.RV770, device.RV870} {
		for _, dt := range []il.DataType{il.Float, il.Float4} {
			cards = append(cards, Card{Arch: a, Mode: il.Pixel, Type: dt})
			cards = append(cards, Card{Arch: a, Mode: il.Compute, Type: dt})
		}
	}
	spec, err := s.ALUFetchSpec(ALUFetchConfig{
		Cards:      cards,
		InputSpace: il.GlobalSpace,
		OutSpace:   il.GlobalSpace,
	})
	return named(spec, err, "fig10", "ALU:Fetch Ratio for 16 Inputs using Global Read and Write")
}

// Fig11Spec plans the texture fetch latency sweep: inputs 2..18.
func (s *Suite) Fig11Spec() (FigureSpec, error) {
	spec, err := s.ReadLatencySpec(ReadLatencyConfig{Space: il.TextureSpace})
	return named(spec, err, "fig11", "Texture Fetch Latency")
}

// Fig12Spec plans the global read latency sweep.
func (s *Suite) Fig12Spec() (FigureSpec, error) {
	spec, err := s.ReadLatencySpec(ReadLatencyConfig{Space: il.GlobalSpace})
	return named(spec, err, "fig12", "Global Read Latency")
}

// Fig13Spec plans the streaming store latency sweep: outputs 1..8, pixel
// mode.
func (s *Suite) Fig13Spec() (FigureSpec, error) {
	spec, err := s.WriteLatencySpec(WriteLatencyConfig{Space: il.TextureSpace})
	return named(spec, err, "fig13", "Streaming Store Latency")
}

// Fig14Spec plans the global write latency sweep: outputs 1..8, both modes.
func (s *Suite) Fig14Spec() (FigureSpec, error) {
	spec, err := s.WriteLatencySpec(WriteLatencyConfig{Space: il.GlobalSpace})
	return named(spec, err, "fig14", "Global Write Latency")
}

// Fig15PixelSpec plans the pixel-mode domain size sweep (Fig. 15a).
func (s *Suite) Fig15PixelSpec() (FigureSpec, error) {
	spec, err := s.DomainSizeSpec(DomainConfig{Cards: PixelCards()})
	return named(spec, err, "fig15a", "Domain Size Pixel Shader")
}

// Fig15ComputeSpec plans the compute-mode domain size sweep (Fig. 15b).
func (s *Suite) Fig15ComputeSpec() (FigureSpec, error) {
	spec, err := s.DomainSizeSpec(DomainConfig{Cards: ComputeCards(0, 0)})
	return named(spec, err, "fig15b", "Domain Size Compute Shader")
}

// Fig16Spec plans the register pressure sweep: 64 inputs, space 8,
// ALU:Fetch 4.0.
func (s *Suite) Fig16Spec() (FigureSpec, error) {
	spec, err := s.RegisterUsageSpec(RegisterUsageConfig{})
	return named(spec, err, "fig16", "Impact of Register Usage")
}

// Fig17Spec repeats Fig. 16's compute series with the 4x16 block.
func (s *Suite) Fig17Spec() (FigureSpec, error) {
	spec, err := s.RegisterUsageSpec(RegisterUsageConfig{Cards: ComputeCards(4, 16)})
	return named(spec, err, "fig17", "Impact of Register Usage with Block Size of 4x16")
}

// ClauseControlSpec plans the Fig. 5 experiment: identical clause
// structure with all sampling up front; its curves must be flat, proving
// Fig. 16's gains come from register pressure rather than clause
// movement.
func (s *Suite) ClauseControlSpec() (FigureSpec, error) {
	spec, err := s.RegisterUsageSpec(RegisterUsageConfig{Control: true})
	return named(spec, err, "clausectl", "Clause Usage Control")
}
