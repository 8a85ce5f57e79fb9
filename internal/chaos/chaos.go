// Package chaos is a process-wide deterministic failpoint registry.
//
// A failpoint is a named site in production code — "ingest.snapshot.write",
// "balancer.dial" — where a test or soak can inject typed faults: returned
// errors (EIO/ENOSPC-style), added latency, partial writes, or one-shot
// payload corruption. Sites are declared once as package vars:
//
//	var siteSnapWrite = chaos.NewSite("ingest.snapshot.write")
//
// and consulted on the hot path either as
//
//	if err := siteSnapWrite.Err(); err != nil { return err }
//
// for error-shaped sites, or via Fault() when the caller wants to implement
// Partial/Corrupt semantics itself (a writer that can tear its own output).
//
// # Cost model
//
// The registry is built for production code paths that are benchmarked to
// zero allocations: when a site is disarmed (the common case — always, in
// production, unless an operator drills with a rule file) the check is a
// single atomic pointer load returning the zero Fault by value. No locks,
// no allocations, no time calls. TestDisarmedHitZeroAlloc pins this with
// testing.AllocsPerRun, and the repo-level BenchmarkManyConnStream /
// BenchmarkFrameWritePreframed baselines pin the end-to-end send path that
// crosses several sites per frame.
//
// # Determinism
//
// Armed faults fire from per-site hit counters, never from wall-clock time
// or math/rand: rule {After: 3, Every: 5, Count: 2} fires on exactly the
// 4th and 9th hit of that site, every run. Schedule derives (After, Every)
// pairs from a seed via splitmix64 so a soak can arm a whole fleet of sites
// from one integer and replay it exactly. Fault.Tick carries the hit number
// so injectors needing a deterministic byte offset (corruption) can derive
// one without global state.
//
// Arm installs a rule set atomically across the named sites and Disarm
// removes every rule everywhere. Tests and soaks call both; the one
// production caller is dragonfly-server -faults, which arms the rules
// ReadRules parses once at startup, before it serves. Neither may be called
// concurrently with the other (hits may race with both, that is the
// point). Tests that arm sites must not run in t.Parallel with other
// tests of the same process — the registry is process-global by design,
// mirroring the single-process failpoint registries of gofail and friends.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// faultNone means the site is disarmed (the zero Fault).
	faultNone Kind = iota
	// FaultError makes the site return a typed error.
	FaultError
	// FaultDelay stalls the site for Fault.Delay before proceeding normally.
	FaultDelay
	// FaultPartial makes a write-shaped site deliver only Fault.Frac of its
	// payload and then fail. A link (netem.link.write) reports full success
	// instead: the silent loss a checksummed stream must surface.
	// Error-shaped sites treat it as FaultError.
	FaultPartial
	// FaultCorrupt makes a payload-shaped site flip a byte (deterministically
	// chosen from Fault.Tick) and carry on as if the write succeeded.
	// Error-shaped sites treat it as FaultError.
	FaultCorrupt
)

// String returns the kind's catalog name ("error", "delay", ...).
func (k Kind) String() string {
	switch k {
	case faultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultDelay:
		return "delay"
	case FaultPartial:
		return "partial"
	case FaultCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrInjected is the root of every chaos-injected error; recovery code can
// errors.Is against it to distinguish injected faults in assertions, and
// production code must NOT special-case it — the whole point is that an
// injected EIO takes the same path a real one would.
var ErrInjected = errors.New("chaos: injected fault")

// Fault is the instruction a hit returns. The zero value means "disarmed,
// proceed"; check Active() or Kind. Faults are returned by value so the
// disarmed path performs no allocation.
type Fault struct {
	Kind  Kind
	Err   error         // FaultError/FaultPartial: the error to surface
	Delay time.Duration // FaultDelay: how long to stall
	Frac  float64       // FaultPartial: fraction of the payload delivered, in [0,1)
	Tick  uint64        // the site's hit number (1-based) that triggered this fault
}

// Active reports whether a fault was injected.
func (f Fault) Active() bool { return f.Kind != faultNone }

// Rule arms one fault pattern at one site. The zero values of After/Every/
// Count mean "from the first hit", "every eligible hit", "unlimited".
type Rule struct {
	Site  string        // registered site name (Arm fails on unknown names)
	Kind  Kind          // fault to inject; faultNone rules are rejected
	Err   error         // optional override; default is "<site>: chaos: injected fault"
	Delay time.Duration // FaultDelay duration; default 10ms
	Frac  float64       // FaultPartial delivered fraction; default 0.5, clamped to [0,1)
	After int           // skip this many hits before the rule becomes eligible
	Every int           // fire on every Nth eligible hit (default 1 = every hit)
	Count int           // stop after this many firings (0 = unlimited)
}

type armedRule struct {
	Rule
	fired atomic.Int64
}

type siteState struct {
	hits  atomic.Uint64
	rules []*armedRule
}

// Site is a registered failpoint. Construct with NewSite at package scope.
type Site struct {
	name     string
	st       atomic.Pointer[siteState]
	injected atomic.Uint64
}

var (
	regMu sync.Mutex
	reg   = map[string]*Site{}
)

// NewSite registers a failpoint name and returns its handle. Names are
// process-global; registering the same name twice panics (it would split
// one conceptual site across two counters), as does an empty name.
func NewSite(name string) *Site {
	if name == "" {
		panic("chaos: empty site name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[name]; dup {
		panic("chaos: duplicate site " + name)
	}
	s := &Site{name: name}
	reg[name] = s
	return s
}

// Fault records a hit and returns the fault to inject, if any. Disarmed
// sites pay one atomic load and return the zero Fault.
func (s *Site) Fault() Fault {
	st := s.st.Load()
	if st == nil {
		return Fault{}
	}
	return s.eval(st)
}

// eval is the armed slow path, split out so Fault stays inlinable.
func (s *Site) eval(st *siteState) Fault {
	h := st.hits.Add(1)
	for _, r := range st.rules {
		if h <= uint64(r.After) {
			continue
		}
		if r.Every > 1 && (h-uint64(r.After)-1)%uint64(r.Every) != 0 {
			continue
		}
		if r.Count > 0 {
			if n := r.fired.Add(1); n > int64(r.Count) {
				continue
			}
		} else {
			r.fired.Add(1)
		}
		s.injected.Add(1)
		f := Fault{Kind: r.Kind, Err: r.Err, Delay: r.Delay, Frac: r.Frac, Tick: h}
		if f.Err == nil {
			f.Err = fmt.Errorf("%s: %w", s.name, ErrInjected)
		}
		if f.Kind == FaultDelay && f.Delay <= 0 {
			f.Delay = 10 * time.Millisecond
		}
		if f.Kind == FaultPartial && !(f.Frac > 0 && f.Frac < 1) { // the negated form also catches NaN
			f.Frac = 0.5
		}
		return f
	}
	return Fault{}
}

// Err is the convenience form for error-shaped sites: it applies delay
// faults inline (sleep, then proceed) and collapses Error/Partial/Corrupt
// to the fault's error. Returns nil when disarmed or after a delay.
func (s *Site) Err() error {
	st := s.st.Load()
	if st == nil {
		return nil
	}
	f := s.eval(st)
	switch f.Kind {
	case faultNone:
		return nil
	case FaultDelay:
		time.Sleep(f.Delay)
		return nil
	default:
		return f.Err
	}
}

// Arm installs the given rules, replacing any prior rules at the named
// sites (other sites are untouched) and resetting those sites' hit and
// injection counters. Unknown site names, faultNone kinds and negative hit
// counts fail the whole call without arming anything.
func Arm(rules ...Rule) error {
	regMu.Lock()
	defer regMu.Unlock()
	bySite := map[string][]*armedRule{}
	for _, r := range rules {
		if r.Kind == faultNone {
			return fmt.Errorf("chaos: rule for %q has no fault kind", r.Site)
		}
		if r.After < 0 || r.Every < 0 || r.Count < 0 {
			return fmt.Errorf("chaos: rule for %q has a negative hit count (after %d, every %d, count %d)",
				r.Site, r.After, r.Every, r.Count)
		}
		if _, ok := reg[r.Site]; !ok {
			return fmt.Errorf("chaos: unknown site %q", r.Site)
		}
		bySite[r.Site] = append(bySite[r.Site], &armedRule{Rule: r})
	}
	for name, rs := range bySite {
		site := reg[name]
		site.injected.Store(0)
		site.st.Store(&siteState{rules: rs})
	}
	return nil
}

// Disarm removes every rule at every site. Hit and injection counters are
// left readable so a finished test can still assert on Injections().
func Disarm() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, s := range reg {
		s.st.Store(nil)
	}
}

// SiteNames returns every registered failpoint name, sorted. This is the
// catalog the docs drift gate and Schedule build on.
func SiteNames() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Injections returns the injection count for a site by name (0 for unknown
// names, so assertions read cleanly).
func Injections(name string) uint64 {
	regMu.Lock()
	s := reg[name]
	regMu.Unlock()
	if s == nil {
		return 0
	}
	return s.injected.Load()
}

// TotalInjections sums Injections over every registered site.
func TotalInjections() uint64 {
	regMu.Lock()
	defer regMu.Unlock()
	var n uint64
	for _, s := range reg {
		n += s.injected.Load()
	}
	return n
}

// splitmix64 is the same pure-function generator the popsim seeding
// uses: deterministic, stateless, well-mixed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Schedule derives a deterministic injection schedule from a seed: each
// input rule whose After and Every are both zero gets a seeded
// (After in [0,7], Every in [2,9]) pair so faults land at staggered,
// replayable points instead of on every hit. Rules with explicit phases
// pass through untouched. The input slice is not modified.
func Schedule(seed int64, rules []Rule) []Rule {
	out := make([]Rule, len(rules))
	for i, r := range rules {
		if r.After == 0 && r.Every == 0 {
			h := splitmix64(uint64(seed) ^ splitmix64(uint64(i)+0x5bf0_3635))
			r.After = int(h % 8)
			r.Every = 2 + int((h>>8)%8)
		}
		out[i] = r
	}
	return out
}
