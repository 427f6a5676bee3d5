package metrics

// registry.go adds the point-in-time instruments the multi-shard runtime
// exposes: gauges (a value that goes up and down — shards hosted, leaders
// held, heartbeat fan-out) and a named registry that snapshots every
// registered instrument into one map, so a single scrape covers a whole
// process without ad-hoc status structs.

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Gauge is a concurrent instantaneous value. Unlike Counter it can move
// in both directions.
type Gauge struct {
	mu sync.Mutex
	v  int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) {
	g.mu.Lock()
	g.v += delta
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Registry is a named collection of gauges and counters with a one-call
// Snapshot. Instruments are created on first use and live for the
// registry's lifetime. Safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	gauges     map[string]*Gauge
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// registryHistogramCap bounds the reservoir of every registry-owned
// histogram: the write-path tracer observes into these for the lifetime of
// a member, so memory must stay flat no matter how long the process runs.
const registryHistogramCap = 4096

// NewRegistry returns an empty instrument registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges:     make(map[string]*Gauge),
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named duration histogram, creating it (capped, so
// long-lived registries stay bounded) on first use. Histograms live in
// their own namespace: Snapshot does not fold them into the scalar map —
// use Histograms or the Prometheus renderer to read them.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = NewHistogramCapped(registryHistogramCap)
		r.histograms[name] = h
	}
	return h
}

// Histograms returns the registered histograms by name. The histograms are
// shared (live) instruments, not copies; the map itself is a snapshot.
func (r *Registry) Histograms() map[string]*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		out[name] = h
	}
	return out
}

// Snapshot returns every registered instrument's current value by name.
// Counter and gauge names share one namespace; a counter shadowing a
// gauge of the same name is a caller bug, and the counter wins.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.gauges)+len(r.counters))
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// Names returns the sorted instrument names, for stable rendering.
func (r *Registry) Names() []string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Publish sets one gauge per `metric`-tagged field of v (see Walk): a
// status type declares its signals once, in its tags, and a scrape
// publishes the same value GET /status serves.
func (r *Registry) Publish(v any) {
	Walk(v, func(name string, val int64) { r.Gauge(name).Set(val) })
}

// Walk calls fn for every `metric:"<name>"`-tagged field reachable from
// v through structs, embedded structs and non-nil pointers. Integers
// are reported as they are, bools as 0/1 and durations in nanoseconds;
// untagged struct fields are walked into and nil pointers skipped. A tag
// on any other kind of field is a declaration bug and panics.
func Walk(v any, fn func(name string, val int64)) { walk(reflect.ValueOf(v), fn) }

func walk(v reflect.Value, fn func(string, int64)) {
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		name := f.Tag.Get("metric")
		switch {
		case !f.IsExported():
		case name == "":
			walk(fv, fn)
		case fv.Kind() == reflect.Bool:
			var b int64
			if fv.Bool() {
				b = 1
			}
			fn(name, b)
		case fv.CanInt():
			fn(name, fv.Int())
		case fv.CanUint():
			fn(name, int64(fv.Uint()))
		default:
			panic(fmt.Sprintf("metrics: %s.%s is tagged %q but is a %s", t, f.Name, name, fv.Kind()))
		}
	}
}
