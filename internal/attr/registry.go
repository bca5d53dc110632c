package attr

import "sync"

// Registry is the "distributed service" of the paper reduced to one process:
// a concurrent attribute store with update watchers. A connection shares one
// Registry between the application and the transport so either side can
// publish attributes the other reads or reacts to (e.g. the transport
// publishes NET_LOSS continuously; the application publishes LOSS_TOLERANCE).
//
// Registry is safe for concurrent use; under the discrete-event simulator
// the mutex is uncontended and effectively free. The zero Registry is empty
// and ready to use, so a connection holds its registry inline: attributes
// are kept in a List (a connection publishes a handful) and the watcher
// map is built by the first Watch.
type Registry struct {
	mu       sync.RWMutex
	attrs    List
	watchers map[string][]func(name string, v Value)
	all      []func(name string, v Value)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return new(Registry) }

// Set publishes name=v and synchronously notifies watchers of that name and
// catch-all watchers. Notification happens outside the lock so watchers may
// call back into the registry.
func (r *Registry) Set(name string, v Value) {
	r.mu.Lock()
	r.attrs.Set(name, v)
	var named, all []func(string, Value)
	named = append(named, r.watchers[name]...)
	all = append(all, r.all...)
	r.mu.Unlock()
	for _, w := range named {
		w(name, v)
	}
	for _, w := range all {
		w(name, v)
	}
}

// Get returns the current value of name.
func (r *Registry) Get(name string) (Value, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.attrs.Get(name)
}

// FloatOr returns name as a float, or def when absent.
func (r *Registry) FloatOr(name string, def float64) float64 {
	v, ok := r.Get(name)
	if !ok {
		return def
	}
	return v.AsFloat()
}

// Watch registers fn to run on every Set of name. There is no unregister:
// watcher lifetime equals connection lifetime in this system.
func (r *Registry) Watch(name string, fn func(name string, v Value)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.watchers == nil {
		r.watchers = make(map[string][]func(string, Value))
	}
	r.watchers[name] = append(r.watchers[name], fn)
}

// WatchAll registers fn to run on every Set.
func (r *Registry) WatchAll(fn func(name string, v Value)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.all = append(r.all, fn)
}

// Snapshot returns a copy of the current attributes as a List.
func (r *Registry) Snapshot() *List {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return &List{attrs: append([]Attr(nil), r.attrs.attrs...)}
}

// Len returns the number of published attributes.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.attrs.Len()
}
