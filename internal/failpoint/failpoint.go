// Package failpoint is a dependency-free registry of named fault sites for
// chaos testing the serving stack. Production code calls Inject(site) at a
// handful of interesting places (parsing a document, building a plan,
// evaluating a shard, merging shard results, writing a response); tests and
// the SMOQE_FAILPOINTS environment variable arm those sites to inject
// errors, panics or delays with an optional firing probability. An unarmed
// registry costs one atomic load per Inject call.
//
// Spec grammar (one site):
//
//	mode[:argument][@probability]
//
//	error           return an *Error from Inject
//	panic           panic with an *Error
//	sleep:50ms      sleep, then return nil
//	error@0.1       as error, but only on 10% of calls
//
// The environment variable holds a list: SMOQE_FAILPOINTS=site=spec[,site=spec...]
// (',' and ';' both separate entries).
package failpoint

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar is the environment variable ArmFromEnv reads.
const EnvVar = "SMOQE_FAILPOINTS"

// The fault sites wired into the serving stack. Enable accepts arbitrary
// site names (tests may add their own), but these are the ones production
// code fires.
const (
	// SiteXMLTreeParse fires once at the start of every XML decode
	// (xmltree.ParseInto), whether it builds a tree or columns.
	SiteXMLTreeParse = "xmltree.parse"
	// SiteServerPlanBuild fires inside the plan cache's single-flight
	// build, before parse/rewrite/compile runs.
	SiteServerPlanBuild = "server.planbuild"
	// SiteHypeShardWorker fires in a shard-parallel worker before each
	// shard subtree evaluation.
	SiteHypeShardWorker = "hype.shard.worker"
	// SiteHypeMerge fires after the shard barrier, before the sequential
	// merge of shard results.
	SiteHypeMerge = "hype.merge"
	// SiteServerRespond fires in the HTTP layer after a successful query,
	// before the response is written.
	SiteServerRespond = "server.respond"
	// SiteSnapshotWrite fires at the start of every columnar snapshot
	// serialization (colstore.WriteSnapshot).
	SiteSnapshotWrite = "colstore.snapshot.write"
	// SiteSnapshotRead fires at the start of every columnar snapshot
	// deserialization (colstore.ReadSnapshot).
	SiteSnapshotRead = "colstore.snapshot.read"
	// SiteCorpusManifestWrite fires inside the corpus manifest writer,
	// between the temp-file write and the atomic rename (so an injected
	// crash leaves a torn temp file, never a torn manifest).
	SiteCorpusManifestWrite = "corpus.manifest.write"
	// SiteCorpusIndexDoc fires before each per-document index (parse +
	// fingerprint) attempt in the corpus indexer.
	SiteCorpusIndexDoc = "corpus.index.doc"
	// SiteCorpusScan fires at the start of every corpus directory scan.
	SiteCorpusScan = "corpus.scan"
)

// Mode is what an armed failpoint does when it fires.
type Mode string

const (
	// ModeError makes Inject return an *Error.
	ModeError Mode = "error"
	// ModePanic makes Inject panic with an *Error.
	ModePanic Mode = "panic"
	// ModeSleep makes Inject sleep for the configured duration.
	ModeSleep Mode = "sleep"
)

// Error is the fault an armed site injects: the value Inject returns in
// error mode and panics with in panic mode. Callers recognize injected
// faults with errors.As.
type Error struct {
	Site string
	Mode Mode
}

func (e *Error) Error() string {
	return fmt.Sprintf("failpoint: injected %s at %s", e.Mode, e.Site)
}

// rule is one armed site's behavior.
type rule struct {
	mode  Mode
	sleep time.Duration
	prob  float64 // (0, 1]; 1 = fire on every call
	spec  string  // the textual spec, for Armed()
}

var (
	mu sync.RWMutex
	// rules is guarded by mu.
	rules = map[string]rule{}
	// hits is guarded by mu (the per-site counters themselves are atomic).
	hits = map[string]*atomic.Int64{}
	// armed caches len(rules) so an unarmed Inject is one atomic load.
	armed atomic.Int32
)

// Enable arms site with the given spec (see the package comment for the
// grammar), replacing any previous rule for the site.
func Enable(site, spec string) error {
	if site == "" {
		return fmt.Errorf("failpoint: empty site name")
	}
	pr, err := Parse(spec)
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	rules[site] = rule{mode: pr.Mode, sleep: pr.Sleep, prob: pr.Prob, spec: spec}
	if hits[site] == nil {
		hits[site] = &atomic.Int64{}
	}
	armed.Store(int32(len(rules)))
	return nil
}

// Disable disarms site (a no-op if it was not armed). Hit counts survive so
// tests can still assert how often a disarmed site fired.
func Disable(site string) {
	mu.Lock()
	defer mu.Unlock()
	delete(rules, site)
	armed.Store(int32(len(rules)))
}

// DisableAll disarms every site and resets all hit counts.
func DisableAll() {
	mu.Lock()
	defer mu.Unlock()
	rules = map[string]rule{}
	hits = map[string]*atomic.Int64{}
	armed.Store(0)
}

// Hits reports how many times the site actually fired (fired = the
// probability check passed and the fault was injected).
func Hits(site string) int64 {
	mu.RLock()
	defer mu.RUnlock()
	if h := hits[site]; h != nil {
		return h.Load()
	}
	return 0
}

// Armed returns the armed sites as "site=spec" strings, sorted — what a
// daemon logs at startup.
func Armed() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(rules))
	for site, r := range rules {
		out = append(out, site+"="+r.spec)
	}
	sort.Strings(out)
	return out
}

// ArmSpec arms every "site=spec" entry of a ','- or ';'-separated list and
// returns the sites it armed. On a malformed entry nothing further is armed
// and the error names the offending entry.
func ArmSpec(specs string) ([]string, error) {
	var armedSites []string
	for _, entry := range strings.FieldsFunc(specs, func(r rune) bool { return r == ',' || r == ';' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, spec, ok := strings.Cut(entry, "=")
		if !ok {
			return armedSites, fmt.Errorf("failpoint: bad entry %q (want site=spec)", entry)
		}
		if err := Enable(strings.TrimSpace(site), strings.TrimSpace(spec)); err != nil {
			return armedSites, fmt.Errorf("failpoint: entry %q: %w", entry, err)
		}
		armedSites = append(armedSites, strings.TrimSpace(site))
	}
	return armedSites, nil
}

// ArmFromEnv arms failpoints from $SMOQE_FAILPOINTS. An unset or empty
// variable is a no-op.
func ArmFromEnv() ([]string, error) {
	v := os.Getenv(EnvVar)
	if v == "" {
		return nil, nil
	}
	return ArmSpec(v)
}

// Inject fires the site if armed: it returns an *Error (error mode), panics
// with an *Error (panic mode), or sleeps and returns nil (sleep mode). An
// unarmed site — the production case — returns nil after one atomic load.
func Inject(site string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.RLock()
	r, ok := rules[site]
	var h *atomic.Int64
	if ok {
		h = hits[site]
	}
	mu.RUnlock()
	if !ok {
		return nil
	}
	if r.prob < 1 && rand.Float64() >= r.prob {
		return nil
	}
	h.Add(1)
	switch r.mode {
	case ModeSleep:
		time.Sleep(r.sleep)
		return nil
	case ModePanic:
		panic(&Error{Site: site, Mode: ModePanic})
	default:
		return &Error{Site: site, Mode: ModeError}
	}
}

// Rule is the parsed form of one failpoint spec: what an armed site does
// and how often it fires.
type Rule struct {
	Mode  Mode
	Sleep time.Duration // ModeSleep only
	Prob  float64       // (0, 1]; 1 fires on every call
}

// ParseError is the typed rejection Parse returns for a malformed spec;
// it names the spec and the first rule it violates.
type ParseError struct {
	Spec   string
	Reason string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("failpoint: bad spec %q: %s", e.Spec, e.Reason)
}

// Parse parses "mode[:argument][@probability]" (the grammar in the package
// comment) into a Rule. Malformed specs — unknown or empty mode, stray
// arguments, whitespace, repeated '@', probabilities outside (0, 1]
// (including NaN) — are rejected with a *ParseError; nothing is accepted
// silently, because a failpoint that does not mean what its spec says
// invalidates the chaos test that armed it.
func Parse(spec string) (Rule, error) {
	fail := func(reason string) (Rule, error) {
		return Rule{}, &ParseError{Spec: spec, Reason: reason}
	}
	if spec == "" {
		return fail("empty spec")
	}
	if strings.ContainsAny(spec, " \t\r\n") {
		return fail("whitespace in spec")
	}
	r := Rule{Prob: 1}
	body := spec
	if at := strings.Index(spec, "@"); at >= 0 {
		frac := spec[at+1:]
		if strings.Contains(frac, "@") {
			return fail("more than one '@'")
		}
		p, err := strconv.ParseFloat(frac, 64)
		if err != nil {
			return fail(fmt.Sprintf("unparsable probability %q", frac))
		}
		// The negated form is NaN-proof: every comparison with NaN is false.
		if !(p > 0 && p <= 1) {
			return fail("probability must satisfy 0 < p <= 1")
		}
		r.Prob = p
		body = spec[:at]
	}
	mode, arg, hasArg := strings.Cut(body, ":")
	if mode == "" {
		return fail("empty mode")
	}
	switch Mode(mode) {
	case ModeError, ModePanic:
		if hasArg {
			return fail(fmt.Sprintf("mode %q takes no argument", mode))
		}
		r.Mode = Mode(mode)
	case ModeSleep:
		if !hasArg || arg == "" {
			return fail("sleep needs a duration, e.g. sleep:50ms")
		}
		d, err := time.ParseDuration(arg)
		if err != nil {
			return fail(fmt.Sprintf("bad sleep duration %q", arg))
		}
		if d < 0 {
			return fail("negative sleep duration")
		}
		r.Mode, r.Sleep = ModeSleep, d
	default:
		return fail(fmt.Sprintf("unknown mode %q (want error, panic or sleep:<dur>)", mode))
	}
	return r, nil
}
