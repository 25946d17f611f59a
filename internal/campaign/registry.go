package campaign

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"amdgpubench/internal/core"
	"amdgpubench/internal/device"
	"amdgpubench/internal/hier"
)

// The name registry is the one table mapping figure names to their spec
// builders. Every front end resolves names through it: `amdmb fig7`,
// `amdmb campaign -figs fig7` and a daemon request for fig7 all plan the
// same spec and run it through Plan.Run.

// Builder plans one figure on a suite.
type Builder func(*core.Suite) (core.FigureSpec, error)

// figure is one registry entry.
type figure struct {
	build Builder
	// positional marks a figure whose Finish assembles series by point
	// POSITION (parallel label slices, per-index converters): dropping
	// points would relabel the survivors, so it rejects arch filtering.
	// Figures assembled card-major from the runs themselves
	// (AssembleSeries and the register-usage re-key) filter safely.
	positional bool
}

var registry = map[string]figure{
	"fig7":      {build: (*core.Suite).Fig7Spec},
	"fig8":      {build: (*core.Suite).Fig8Spec},
	"fig9":      {build: (*core.Suite).Fig9Spec},
	"fig10":     {build: (*core.Suite).Fig10Spec},
	"fig11":     {build: (*core.Suite).Fig11Spec},
	"fig12":     {build: (*core.Suite).Fig12Spec},
	"fig13":     {build: (*core.Suite).Fig13Spec},
	"fig14":     {build: (*core.Suite).Fig14Spec},
	"fig15a":    {build: (*core.Suite).Fig15PixelSpec},
	"fig15b":    {build: (*core.Suite).Fig15ComputeSpec},
	"fig16":     {build: (*core.Suite).Fig16Spec},
	"fig17":     {build: (*core.Suite).Fig17Spec},
	"clausectl": {build: (*core.Suite).ClauseControlSpec},
	"trans": {positional: true, build: func(s *core.Suite) (core.FigureSpec, error) {
		return s.TransThroughputSpec(core.TransThroughputConfig{Arch: device.RV770})
	}},
	"blocks": {positional: true, build: func(s *core.Suite) (core.FigureSpec, error) {
		return s.BlockSizeSpec(core.BlockSizeConfig{})
	}},
	"consts": {positional: true, build: func(s *core.Suite) (core.FigureSpec, error) {
		return s.ConstantsSpec(core.ConstantsConfig{Arch: device.RV770})
	}},
	"hier-lat":    {positional: true, build: hier.LatencyLadderSpec},
	"hier-wset":   {positional: true, build: hier.WorkingSetSpec},
	"hier-line":   {positional: true, build: hier.LineBlendSpec},
	"hier-stride": {positional: true, build: hier.StrideResonanceSpec},
}

// FigureNames lists every name Specs accepts, sorted.
func FigureNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// UnknownFigureError is Resolve's error for a name the registry lacks.
type UnknownFigureError struct{ Name string }

func (e UnknownFigureError) Error() string {
	return fmt.Sprintf("campaign: unknown figure %q (have %s)", e.Name, strings.Join(FigureNames(), ", "))
}

// Resolve is the one name check every front end shares. It trims and
// lowercases each name and skips blanks; a trailing '*' expands to
// every registered figure with that prefix, in sorted order ("hier-*"
// plans the whole hierarchy dissection). The result keeps the given
// order. An unknown name, a glob matching nothing, a figure named twice
// (directly or through a glob) and an empty list are errors: the
// scheduler fans one result out to many figures, but two copies of the
// same figure in one campaign is almost certainly a typo.
func Resolve(names []string) ([]string, error) {
	var out []string
	seen := make(map[string]bool, len(names))
	add := func(name string) error {
		if seen[name] {
			return fmt.Errorf("campaign: figure %q listed twice", name)
		}
		seen[name] = true
		out = append(out, name)
		return nil
	}
	for _, name := range names {
		name = strings.ToLower(strings.TrimSpace(name))
		switch {
		case name == "":
		case strings.HasSuffix(name, "*"):
			prefix := strings.TrimSuffix(name, "*")
			matched := false
			for _, known := range FigureNames() {
				if strings.HasPrefix(known, prefix) {
					matched = true
					if err := add(known); err != nil {
						return nil, err
					}
				}
			}
			if !matched {
				return nil, fmt.Errorf("campaign: glob %q matches no figure (have %s)", name, strings.Join(FigureNames(), ", "))
			}
		case registry[name].build != nil:
			if err := add(name); err != nil {
				return nil, err
			}
		default:
			return nil, UnknownFigureError{Name: name}
		}
	}
	if len(out) == 0 {
		return nil, errors.New("campaign: no figures named")
	}
	return out, nil
}

// Specs plans the named figures on the suite, in the order Resolve
// gives them.
func Specs(s *core.Suite, names []string) ([]Spec, error) {
	names, err := Resolve(names)
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, 0, len(names))
	for _, name := range names {
		fig, err := registry[name].build(s)
		if err != nil {
			return nil, fmt.Errorf("campaign: planning %s: %w", name, err)
		}
		specs = append(specs, Spec{Name: name, Figure: fig})
	}
	return specs, nil
}
