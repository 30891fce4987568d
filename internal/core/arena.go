package core

// Arena is a worker-owned cache of protocol instances for batch execution:
// one slot per protocol kind, reused via Reset when the next instance asks for
// the same configuration (construction-time modes included). Building a
// protocol allocates the full register fabric (O(n²) arrow registers for the
// Arrow memory), so a worker running many same-shaped instances pays that
// cost once. ExecuteProto installs every instrument on every run, so a reused
// instance never keeps a previous run's observers.
//
// An Arena is NOT safe for concurrent use — each batch worker owns its own.
type Arena struct {
	slots map[Kind]*arenaSlot
}

type arenaSlot struct {
	cfg   Config // the caller's config, pre-defaulting, used as the reuse key
	proto Protocol
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{slots: make(map[Kind]*arenaSlot)}
}

// Protocol returns an instance of the given kind ready to run once: the
// cached one, reset, when the configuration matches exactly; a freshly built
// one (replacing the slot) otherwise. cfg.N must be set by the caller.
func (a *Arena) Protocol(kind Kind, cfg Config) (Protocol, error) {
	if s, ok := a.slots[kind]; ok && s.cfg == cfg {
		s.proto.Reset()
		return s.proto, nil
	}
	proto, err := New(kind, cfg)
	if err != nil {
		return nil, err
	}
	a.slots[kind] = &arenaSlot{cfg: cfg, proto: proto}
	return proto, nil
}
