package authoritative

import (
	"math"
	"testing"
)

// FuzzParseRRLConfig drives the -rrl flag grammar with arbitrary text.
// Whatever it accepts must be a config the limiter can run: a finite rate
// above zero, a finite burst of at least one, slip >= 0, and prefixes in
// range — the inputs under which no bucket can be poisoned.
func FuzzParseRRLConfig(f *testing.F) {
	for _, s := range []string{
		"", "default", "rps=5,burst=15,slip=2,prefix4=24,prefix6=56", "rps=2,slip=3",
		"rps=nan", "burst=nan", "rps=inf", "slip=-3", "prefix4=24.9", "prefix6=NaN", "rps=1e309",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseRRLConfig(s)
		if err != nil {
			return
		}
		if math.IsNaN(cfg.RPS) || math.IsInf(cfg.RPS, 0) || cfg.RPS <= 0 {
			t.Fatalf("%q accepted rps %v", s, cfg.RPS)
		}
		if math.IsNaN(cfg.Burst) || math.IsInf(cfg.Burst, 0) || cfg.Burst < 1 {
			t.Fatalf("%q accepted burst %v", s, cfg.Burst)
		}
		if cfg.Slip < 0 || cfg.Prefix4 < 0 || cfg.Prefix4 > 32 || cfg.Prefix6 < 0 || cfg.Prefix6 > 128 {
			t.Fatalf("%q accepted %+v", s, cfg)
		}
		// EnableRRL panics on any config the parser should have refused.
		(&Server{}).EnableRRL(cfg)
	})
}
