// Process-wide cache of generated topologies, keyed by (params, seed).
//
// The paper-scale GT-ITM instance (15,600 hosts, per-domain APSP plus a
// 240^2 transit core) is expensive enough that rebuilding it per grid --
// or worse, per cell -- dominates short sweeps. Every bench process builds
// it exactly once here and every runner cell shares the same immutable
// instance read-only; net::Topology's accessors are all const and its
// state is frozen after Generate(), so concurrent cell threads need no
// locking (the TSan grid job guards this invariant).
//
// Returned references live until process exit; the cache never evicts.
#pragma once

#include <cstdint>

#include "net/topology.h"

namespace omcast::runner {

// Returns the topology generated from `params` with an Rng seeded `seed`,
// building and memoizing it on first use. Thread-safe.
const net::Topology& SharedTopology(const net::TopologyParams& params,
                                    std::uint64_t seed);

}  // namespace omcast::runner
