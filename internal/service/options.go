package service

import "repro/internal/core"

// Option adjusts the matcher configuration a session is created with.
// Options replace direct core.Config struct literals at call sites: the
// session starts from core.DefaultConfig (the paper's thresholds) and
// applies options in order, so later options win.
type Option func(*core.Config)

// WithConfig replaces the whole configuration — the escape hatch for
// ablation studies and other callers that already hold a core.Config.
func WithConfig(cfg core.Config) Option {
	return func(c *core.Config) { *c = cfg }
}

// WithTSim sets the certain-match threshold Tsim (paper: 0.6).
func WithTSim(v float64) Option {
	return func(c *core.Config) { c.TSim = v }
}

// WithTLSI sets the LSI correlation threshold TLSI (paper: 0.1).
func WithTLSI(v float64) Option {
	return func(c *core.Config) { c.TLSI = v }
}

// WithTEg sets the inductive-grouping threshold of ReviseUncertain.
func WithTEg(v float64) Option {
	return func(c *core.Config) { c.TEg = v }
}

// WithLSIRank sets the number of latent dimensions (the paper's f).
func WithLSIRank(rank int) Option {
	return func(c *core.Config) { c.LSIRank = rank }
}

// WithSeed sets the seed driving the RandomOrder ablation shuffle.
func WithSeed(seed int64) Option {
	return func(c *core.Config) { c.Seed = seed }
}

// WithExactSVD forces the exact dense Jacobi SVD inside LSI — the
// validation switch for asserting the fast sparse path changes nothing.
func WithExactSVD(on bool) Option {
	return func(c *core.Config) { c.ExactSVD = on }
}

// WithoutDictionary disables dictionary translation inside vsim (the
// paper's extra ablation); the session then skips building per-pair
// dictionaries entirely.
func WithoutDictionary() Option {
	return func(c *core.Config) { c.NoDictionary = true }
}
