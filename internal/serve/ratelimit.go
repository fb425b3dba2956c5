package serve

import (
	"sync"
	"time"

	"webfountain/internal/metrics"
)

var rateDenied = metrics.Default().Counter("serve.ratelimit.denied")

// LimiterConfig tunes the per-tenant token buckets. Zero values select
// defaults.
type LimiterConfig struct {
	// Rate is the steady-state tokens (requests) per second granted to
	// each tenant (default 50). A negative rate disables refill — the
	// bucket holds exactly Burst requests, ever — which makes limiter
	// behavior deterministic in tests.
	Rate float64
	// Burst is the bucket size: how far a tenant may briefly exceed the
	// steady rate (default 100).
	Burst int
	// MaxTenants bounds the tracked-bucket map (default 1024). Once the
	// bound is reached, previously-unseen tenants share the default
	// bucket instead of minting new ones, so a tenant-header spray
	// cannot grow memory without bound.
	MaxTenants int
	// Now overrides the clock, for tests (default time.Now).
	Now func() time.Time
}

// withDefaults clamps zero fields to the documented defaults.
func (cfg LimiterConfig) withDefaults() LimiterConfig {
	if cfg.Rate == 0 {
		cfg.Rate = 50
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 100
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 1024
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// Limiter applies per-tenant token-bucket rate limiting: each tenant
// (the x-tenant header; "" is the default tenant) draws from its own
// bucket, so one chatty dashboard cannot starve the rest. Safe for
// concurrent use.
type Limiter struct {
	mu      sync.Mutex
	cfg     LimiterConfig
	buckets map[string]*bucket
}

// NewLimiter returns a limiter with the given configuration. The
// default tenant's bucket exists from the start: it is the overflow
// target once MaxTenants is reached, so it must never be minted past
// the bound itself.
func NewLimiter(cfg LimiterConfig) *Limiter {
	cfg = cfg.withDefaults()
	return &Limiter{cfg: cfg, buckets: map[string]*bucket{
		"": {tokens: float64(cfg.Burst), last: cfg.Now()},
	}}
}

// Allow reports whether the tenant may make one request now, consuming
// a token if so.
func (l *Limiter) Allow(tenant string) bool {
	now := l.cfg.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[tenant]
	if !ok {
		if len(l.buckets) >= l.cfg.MaxTenants {
			// Over the bound: fold the newcomer into the default bucket
			// rather than growing the map (sweep first — idle tenants'
			// full buckets are reclaimable).
			l.sweep(now)
		}
		if len(l.buckets) >= l.cfg.MaxTenants {
			tenant = ""
			b = l.buckets[tenant]
		}
		if b == nil {
			b = &bucket{tokens: float64(l.cfg.Burst), last: now}
			l.buckets[tenant] = b
		}
	}
	l.refill(b, now)
	if b.tokens < 1 {
		rateDenied.Inc()
		return false
	}
	b.tokens--
	return true
}

// refill credits the bucket for the time since its last use, capped at
// the burst size.
func (l *Limiter) refill(b *bucket, now time.Time) {
	if l.cfg.Rate < 0 {
		return // test mode: no refill
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * l.cfg.Rate
		if max := float64(l.cfg.Burst); b.tokens > max {
			b.tokens = max
		}
	}
	b.last = now
}

// sweep drops buckets that have refilled to full — tenants idle long
// enough that forgetting them is indistinguishable from remembering
// them. Called with the mutex held.
func (l *Limiter) sweep(now time.Time) {
	for t, b := range l.buckets {
		if t == "" {
			continue // the default bucket is the overflow target; keep it
		}
		l.refill(b, now)
		if b.tokens >= float64(l.cfg.Burst) {
			delete(l.buckets, t)
		}
	}
}

// Tenants returns the number of tracked tenant buckets.
func (l *Limiter) Tenants() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}
