#include "runner/topology_cache.h"

#include <list>
#include <utility>

#include "rand/rng.h"
#include "util/hash.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace omcast::runner {

namespace {

// Structural fingerprint of the generation inputs. Two parameter sets that
// hash equal are compared field-by-field before reuse, so a collision can
// only cost an extra comparison, never a wrong topology.
std::uint64_t ParamsKey(const net::TopologyParams& p, std::uint64_t seed) {
  util::RollingHash h;
  h.MixU64(seed);
  h.MixI64(p.transit_domains);
  h.MixI64(p.transit_nodes_per_domain);
  h.MixI64(p.stub_domains_per_transit_node);
  h.MixI64(p.nodes_per_stub_domain);
  h.MixI64(static_cast<std::int64_t>(p.delay_model));
  h.MixI64(p.intra_landmarks);
  h.MixI64(p.keep_flat_edges ? 1 : 0);
  return h.digest();
}

bool SameParams(const net::TopologyParams& a, const net::TopologyParams& b) {
  return a.transit_domains == b.transit_domains &&
         a.transit_nodes_per_domain == b.transit_nodes_per_domain &&
         a.stub_domains_per_transit_node == b.stub_domains_per_transit_node &&
         a.nodes_per_stub_domain == b.nodes_per_stub_domain &&
         a.delay_model == b.delay_model &&
         a.intra_landmarks == b.intra_landmarks &&
         a.keep_flat_edges == b.keep_flat_edges;
}

struct Entry {
  std::uint64_t key = 0;
  std::uint64_t seed = 0;
  net::TopologyParams params;
  net::Topology topology;
};

// The process-wide cache: one mutex guarding the entry list (std::list so
// the returned Topology references stay valid as entries are added; the
// entries themselves are immutable once built, so callers read them without
// the lock -- only the *list* is guarded).
struct Cache {
  util::Mutex mu;
  std::list<Entry> entries OMCAST_GUARDED_BY(mu);
};

Cache& GetCache() {
  static Cache cache;
  return cache;
}

}  // namespace

const net::Topology& SharedTopology(const net::TopologyParams& params,
                                    std::uint64_t seed) {
  const std::uint64_t key = ParamsKey(params, seed);
  Cache& cache = GetCache();
  util::MutexLock lock(cache.mu);
  for (const Entry& e : cache.entries)
    if (e.key == key && e.seed == seed && SameParams(e.params, params))
      return e.topology;
  rnd::Rng rng(seed);
  cache.entries.push_back(
      Entry{key, seed, params, net::Topology::Generate(params, rng)});
  return cache.entries.back().topology;
}

}  // namespace omcast::runner
