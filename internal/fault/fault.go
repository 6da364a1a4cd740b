// Package fault is the injectable failure surface behind the chaos test
// suite. Real code paths — WAL appends and fsyncs, artifact save/load,
// the map-matching and retrain workers — call Check at a named site; in
// production no plan is active and the call is a single atomic pointer
// load that returns nil. A test (or an operator experiment via the
// PATHRANK_FAULTS environment knob) enables a Plan of deterministic,
// seeded rules that make those sites return errors, sleep, or panic on a
// reproducible schedule.
//
// Determinism is the design constraint: a chaos run must be replayable
// from its seed. Rules therefore trigger off per-rule hit counters
// (After/Every/Times) and, when probabilistic, off a counter-indexed
// hash of the plan seed — never off wall-clock time or the global PRNG.
//
// The package is a leaf (stdlib only) so any layer may instrument itself
// without import cycles.
package fault

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Instrumented site names. Code passes these constants to Check; specs
// (ParseSpec) and tests reference the same strings, so a typo is a
// compile error on the code side and a no-op rule on the spec side.
const (
	// SiteWALAppend fails a WAL record append before any bytes are
	// written (a clean ENOSPC, not a torn frame).
	SiteWALAppend = "wal/append"
	// SiteWALSync fails the WAL fsync path.
	SiteWALSync = "wal/sync"
	// SiteWALRotate fails creation of a fresh WAL segment.
	SiteWALRotate = "wal/rotate"
	// SiteArtifactSave fails the atomic artifact persist.
	SiteArtifactSave = "artifact/save"
	// SiteArtifactLoad fails reading an artifact bundle from disk.
	SiteArtifactLoad = "artifact/load"
	// SiteMatch is hit by every map-matching worker iteration; its panic
	// rules simulate a poisoned trajectory killing a worker.
	SiteMatch = "stream/match"
	// SiteRetrain is hit at the start of every retrain step.
	SiteRetrain = "stream/retrain"
)

// ErrInjected is the sentinel wrapped by every injected error, so callers
// and tests can tell injected failures from real ones with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Kind is what a triggered rule does at its site.
type Kind int

const (
	// KindError makes Check return an error wrapping ErrInjected.
	KindError Kind = iota
	// KindPanic makes Check panic (exercising worker containment).
	KindPanic
	// KindDelay makes Check sleep for Rule.Delay, then continue to any
	// further rules on the site (a latency fault, not a failure).
	KindDelay
)

// String returns the spec-syntax name of the kind.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	default:
		return "error"
	}
}

// Rule is one injection: at Site, after a deterministic schedule matches,
// perform Kind. The zero schedule fires on every hit.
type Rule struct {
	// Site names the Check call the rule arms.
	Site string
	// Kind selects the effect; Delay is its duration for KindDelay.
	Kind  Kind
	Delay time.Duration
	// After skips the first After hits of the site (e.g. "let the system
	// warm up, then break the disk").
	After int
	// Every fires on every Every-th eligible hit (default 1 = all).
	Every int
	// Times stops the rule after it has fired Times times (0 = forever).
	Times int
	// Prob, in (0,1), gates each eligible hit on a deterministic coin
	// derived from the plan seed and the hit counter. 0 (and >= 1) means
	// always.
	Prob float64
}

// ruleState is a Rule plus its per-plan trigger counters.
type ruleState struct {
	Rule
	hits  atomic.Int64
	fires atomic.Int64
}

// trigger decides, deterministically, whether this hit fires the rule.
func (st *ruleState) trigger(seed uint64) bool {
	n := st.hits.Add(1) - 1 // 0-based hit number at this site for this rule
	if n < int64(st.After) {
		return false
	}
	every := int64(st.Every)
	if every <= 0 {
		every = 1
	}
	if (n-int64(st.After))%every != 0 {
		return false
	}
	if st.Prob > 0 && st.Prob < 1 && coin(seed, st.Site, n) >= st.Prob {
		return false
	}
	if st.Times > 0 {
		return st.fires.Add(1) <= int64(st.Times)
	}
	st.fires.Add(1)
	return true
}

// coin maps (seed, site, hit) onto [0,1) with a splitmix64-style hash, so
// probabilistic rules are reproducible across runs and goroutine
// schedules that preserve per-site hit order.
func coin(seed uint64, site string, hit int64) float64 {
	x := seed ^ uint64(hit)*0x9e3779b97f4a7c15
	for i := 0; i < len(site); i++ {
		x = (x ^ uint64(site[i])) * 0x100000001b3
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// Plan is an immutable set of armed rules. Build one with NewPlan or
// ParseSpec, activate it with Enable.
type Plan struct {
	seed  uint64
	rules map[string][]*ruleState
}

// NewPlan arms rules under a seed (the seed only matters for Prob rules).
func NewPlan(seed int64, rules ...Rule) *Plan {
	p := &Plan{seed: uint64(seed), rules: make(map[string][]*ruleState, len(rules))}
	for _, r := range rules {
		p.rules[r.Site] = append(p.rules[r.Site], &ruleState{Rule: r})
	}
	return p
}

// Fired reports how many times the rules armed on site have fired in
// total — the ground truth chaos tests assert their injection counts
// against.
func (p *Plan) Fired(site string) int64 {
	var n int64
	for _, st := range p.rules[site] {
		f := st.fires.Load()
		if st.Times > 0 && f > int64(st.Times) {
			f = int64(st.Times)
		}
		n += f
	}
	return n
}

// Hits reports how many times site was checked while this plan was
// active (fired or not).
func (p *Plan) Hits(site string) int64 {
	var n int64
	for _, st := range p.rules[site] {
		if h := st.hits.Load(); h > n {
			n = h
		}
	}
	return n
}

// String renders the plan in (normalized) spec syntax for logs.
func (p *Plan) String() string {
	sites := make([]string, 0, len(p.rules))
	for site := range p.rules {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	var b strings.Builder
	for _, site := range sites {
		for _, st := range p.rules[site] {
			if b.Len() > 0 {
				b.WriteByte(';')
			}
			b.WriteString(site)
			b.WriteByte(':')
			b.WriteString(st.Kind.String())
			if st.Kind == KindDelay {
				b.WriteByte('=')
				b.WriteString(st.Delay.String())
			}
			if st.After > 0 {
				fmt.Fprintf(&b, ":after=%d", st.After)
			}
			if st.Every > 1 {
				fmt.Fprintf(&b, ":every=%d", st.Every)
			}
			if st.Times > 0 {
				fmt.Fprintf(&b, ":times=%d", st.Times)
			}
			if st.Prob > 0 && st.Prob < 1 {
				fmt.Fprintf(&b, ":prob=%g", st.Prob)
			}
		}
	}
	return b.String()
}

// active is the process-wide plan; nil (the default) makes every Check a
// no-op. A single global keeps the hot-path cost at one atomic load and
// lets the instrumented packages stay free of plumbing; the trade-off —
// chaos tests must not run concurrently with each other in one process —
// is enforced by keeping them in dedicated test packages.
var active atomic.Pointer[Plan]

// Enable activates p (replacing any active plan) and returns a function
// restoring the previous state. Typical test use:
//
//	defer fault.Enable(plan)()
func Enable(p *Plan) func() {
	prev := active.Swap(p)
	return func() { active.Store(prev) }
}

// EnableFromEnv activates the fire-drill plan of a binary's environment:
// PATHRANK_FAULTS holds a ParseSpec schedule, PATHRANK_FAULT_SEED its seed
// (default 1). It returns the active plan and its seed, or a nil plan when
// PATHRANK_FAULTS is unset.
func EnableFromEnv() (*Plan, int64, error) {
	spec := os.Getenv("PATHRANK_FAULTS")
	if spec == "" {
		return nil, 0, nil
	}
	var seed int64 = 1
	if v := os.Getenv("PATHRANK_FAULT_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("PATHRANK_FAULT_SEED: %w", err)
		}
		seed = s
	}
	plan, err := ParseSpec(spec, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("PATHRANK_FAULTS: %w", err)
	}
	Enable(plan)
	return plan, seed, nil
}

// Disable deactivates any active plan.
func Disable() { active.Store(nil) }

// Enabled reports whether a plan is active.
func Enabled() bool { return active.Load() != nil }

// Check consults the active plan for site: it returns an injected error,
// sleeps, or panics per the matching rules, and is a nil return at one
// atomic load when no plan is active. Sites on hot paths rely on that
// default being allocation-free.
func Check(site string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.check(site)
}

func (p *Plan) check(site string) error {
	for _, st := range p.rules[site] {
		if !st.trigger(p.seed) {
			continue
		}
		switch st.Kind {
		case KindDelay:
			time.Sleep(st.Delay)
		case KindPanic:
			panic(fmt.Sprintf("fault: injected panic at %s (hit %d)", site, st.hits.Load()))
		default:
			return fmt.Errorf("%w at %s (hit %d)", ErrInjected, site, st.hits.Load())
		}
	}
	return nil
}

// ParseSpec parses the textual rule syntax used by the PATHRANK_FAULTS
// environment knob and the CI chaos matrix:
//
//	rule[;rule...]
//	rule    = site ":" kind [":" option ...]
//	kind    = "error" | "panic" | "delay=<duration>"
//	option  = "after=<n>" | "every=<n>" | "times=<n>" | "prob=<f>"
//
// For example "wal/append:error:after=20:times=5;stream/match:panic:every=50"
// breaks the 21st through 25th WAL appends and panics every 50th matcher
// iteration. seed feeds the probabilistic rules.
func ParseSpec(spec string, seed int64) (*Plan, error) {
	var rules []Rule
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		fields := strings.Split(raw, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("fault: rule %q needs site:kind", raw)
		}
		r := Rule{Site: strings.TrimSpace(fields[0])}
		if r.Site == "" || strings.Contains(r.Site, "=") {
			return nil, fmt.Errorf("fault: rule %q has no site", raw)
		}
		kind := strings.TrimSpace(fields[1])
		switch {
		case kind == "error":
			r.Kind = KindError
		case kind == "panic":
			r.Kind = KindPanic
		case strings.HasPrefix(kind, "delay="):
			d, err := time.ParseDuration(kind[len("delay="):])
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fault: rule %q: bad delay %q", raw, kind)
			}
			r.Kind, r.Delay = KindDelay, d
		default:
			return nil, fmt.Errorf("fault: rule %q: unknown kind %q (want error, panic or delay=<dur>)", raw, kind)
		}
		for _, opt := range fields[2:] {
			key, val, ok := strings.Cut(strings.TrimSpace(opt), "=")
			if !ok {
				return nil, fmt.Errorf("fault: rule %q: option %q is not key=value", raw, opt)
			}
			switch key {
			case "after", "every", "times":
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("fault: rule %q: bad %s=%q", raw, key, val)
				}
				switch key {
				case "after":
					r.After = n
				case "every":
					r.Every = n
				case "times":
					r.Times = n
				}
			case "prob":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil || f < 0 || f > 1 {
					return nil, fmt.Errorf("fault: rule %q: prob=%q wants a probability in [0,1]", raw, val)
				}
				r.Prob = f
			default:
				return nil, fmt.Errorf("fault: rule %q: unknown option %q", raw, key)
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, errors.New("fault: empty spec")
	}
	return NewPlan(seed, rules...), nil
}
