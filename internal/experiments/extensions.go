package experiments

import (
	"fairbench/internal/registry"
	"fairbench/internal/synth"
)

// extensionsGrid builds the appendix's Figure 15: the three additional
// variants (Madras^dp, Agarwal^dp, Agarwal^eo) evaluated on one dataset
// alongside the baseline, with the same protocol as Figure 7.
func extensionsGrid(src *synth.Source, seed int64) *Grid {
	return baselineRowsGrid(src, append([]string{"LR"}, registry.ExtendedNames...), seed)
}
