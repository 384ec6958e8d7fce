// GT-ITM transit-stub topology generator (Zegura, Calvert, Bhattacharjee,
// INFOCOM'96), as used by the paper's Section 5:
//
//   * a core of transit domains, each a connected random graph of transit
//     nodes, with the domains themselves forming a connected random graph;
//   * every transit node attaches several stub domains; each stub domain is
//     a small connected random graph of stub nodes (end hosts) and reaches
//     the core through one gateway stub node;
//   * link delays: transit-transit U[15,25] ms, transit-stub U[5,9] ms,
//     stub-stub U[2,4] ms.
//
// The paper's instance has 15,600 nodes: we use 12 transit domains x 20
// transit nodes (240), each transit node carrying 4 stub domains of 16 hosts
// (15,360 stub hosts). Overlay members are stub hosts.
//
// Routing is hierarchical (intra-stub-domain shortest path; stub -> gateway
// -> transit core shortest path -> gateway -> stub), which is exact for this
// topology family whenever stub domains are pure leaves, and is the routing
// policy real transit-stub networks implement. This keeps the delay oracle
// at O(1) per query after O(domains * n^3 + T^3) precomputation instead of a
// 15,600^2 APSP table.
#pragma once

#include <cstdint>
#include <vector>

#include "rand/rng.h"

namespace omcast::net {

// Global index of a stub host, in [0, num_stub_nodes()).
using HostId = int;

// Which delay oracle Generate() precomputes.
//
//   kHierarchical -- exact hierarchical routing. Per-domain APSP matrices
//     (num_stub_domains * ns^2 doubles) plus the transit-core APSP. The
//     default, and the reference every approximation is gated against.
//   kLandmark -- O(hosts)-memory approximation for 10^5..10^6-host
//     topologies. The hierarchical tables that scale with host count are
//     the per-domain APSP matrices (domains * ns^2 doubles -- hundreds of
//     MB at 10^6 hosts); the transit-core APSP is constant in host count
//     (T^2, under half a MB even at paper scale) and stays exact. Landmark
//     mode replaces each domain's APSP with `intra_landmarks` exact
//     distance columns (one Dijkstra per landmark; the gateway is always
//     landmark 0), so per-host storage drops from ns to intra_landmarks
//     doubles. Cross-domain delay is then EXACT -- host->gateway legs come
//     from column 0 and the core+gateway-edge legs were never approximated.
//     Same-domain delay uses ALT-style triangle-inequality bounds over the
//     domain's landmark set L: max_l |d(l,a)-d(l,b)| <= d(a,b) <=
//     min_l (d(l,a)+d(l,b)), returning the midpoint (exact whenever a or b
//     is itself a landmark, or a == b). tests/test_topology.cc gates the
//     end-to-end error against the exact oracle.
//
// Landmark selection is greedy farthest-point seeded at the gateway (ties
// to the lowest index) and consumes NO rng draws, so the two models
// generate bit-identical graphs from the same seed.
enum class DelayModel { kHierarchical, kLandmark };

// Link-delay ranges in milliseconds (paper Section 5), each link's delay
// drawn uniformly from its range.
inline constexpr double kTransitTransitDelayLoMs = 15.0;
inline constexpr double kTransitTransitDelayHiMs = 25.0;
inline constexpr double kTransitStubDelayLoMs = 5.0;
inline constexpr double kTransitStubDelayHiMs = 9.0;
inline constexpr double kStubStubDelayLoMs = 2.0;
inline constexpr double kStubStubDelayHiMs = 4.0;

// Probability of an extra chord between a pair of nodes beyond the
// connectivity-guaranteeing ring, within transit domains / between transit
// domains / within stub domains.
inline constexpr double kIntraTransitChordProb = 0.5;
inline constexpr double kInterTransitChordProb = 0.5;
inline constexpr double kIntraStubChordProb = 0.3;

struct TopologyParams {
  int transit_domains = 12;
  int transit_nodes_per_domain = 20;
  int stub_domains_per_transit_node = 4;
  int nodes_per_stub_domain = 16;

  DelayModel delay_model = DelayModel::kHierarchical;
  // Per-stub-domain landmark count under kLandmark (clamped to the domain
  // size; landmark 0 is always the gateway).
  int intra_landmarks = 4;
  // The flat validation edge list costs ~24 bytes/edge (~200 MB at 10^6
  // hosts); million-member sweeps switch it off.
  bool keep_flat_edges = true;
};

// The paper's 15,600-node instance.
TopologyParams PaperTopologyParams();

// A small instance for unit tests and quick examples (~100 hosts).
TopologyParams TinyTopologyParams();

// A mid-size instance (~2300 hosts) for the fast default scale of the
// figure benches, where steady-state populations stay below ~2000.
TopologyParams SmallTopologyParams();

// A transit-stub instance scaled to hold at least `stub_hosts` end hosts
// (10 transit domains x 10 transit nodes, 50-host stub domains), with the
// landmark delay model and no flat edge list: the memory-lean configuration
// the scale sweep uses for 10^5..10^6-member overlays.
TopologyParams ScaleTopologyParams(int stub_hosts);

// An undirected weighted edge of the flat graph view (for validation).
struct FlatEdge {
  int a = 0;
  int b = 0;
  double delay_ms = 0.0;
};

// Thread-safety: a Topology is immutable after Generate() returns -- every
// member function is const and there are no mutable caches -- so a bench
// generates one before its grid and every runner cell reads it, on any
// thread, without a lock. Keep it that way: any lazily computed state
// added here must be built eagerly in Generate(), since the program takes
// no locks.
class Topology {
 public:
  // Generates a topology; all randomness comes from `rng`.
  static Topology Generate(const TopologyParams& params, rnd::Rng& rng);

  int num_stub_nodes() const { return num_stub_nodes_; }
  int num_transit_nodes() const { return num_transit_nodes_; }
  int num_stub_domains() const { return num_stub_domains_; }
  const TopologyParams& params() const { return params_; }

  DelayModel delay_model() const { return params_.delay_model; }

  // One-way propagation delay in milliseconds between stub hosts `a` and
  // `b` under hierarchical routing (or its landmark approximation, per
  // params().delay_model). Delay(a, a) == 0; symmetric.
  double Delay(HostId a, HostId b) const;

  // Stub domain a host belongs to, in [0, num_stub_domains()).
  int DomainOf(HostId h) const;

  // Transit node (global transit index) a stub domain attaches to.
  int TransitOfDomain(int domain) const;

  // Flat view of every node and link, for validating the hierarchical delay
  // oracle against plain Dijkstra in tests. Empty when the topology was
  // generated with keep_flat_edges == false. Node numbering of the flat
  // graph: stub host h -> h; transit node t -> num_stub_nodes() + t.
  std::vector<FlatEdge> FlatEdges() const;
  int FlatNodeCount() const { return num_stub_nodes_ + num_transit_nodes_; }

  // Bytes held by the precomputed delay tables (the dominant footprint);
  // the scale bench reports it per delay model.
  std::size_t DelayTableBytes() const;

 private:
  Topology() = default;

  // Index of host `h` within its stub domain.
  int IndexInDomain(HostId h) const;

  TopologyParams params_;
  int num_stub_nodes_ = 0;
  int num_transit_nodes_ = 0;
  int num_stub_domains_ = 0;

  // Per stub domain: the gateway's index within the domain and the delay of
  // the gateway<->transit edge (both models).
  std::vector<int> gateway_index_;
  std::vector<double> gateway_edge_delay_;

  // Transit core APSP (T^2, row-major); exact in both delay models.
  std::vector<double> transit_dist_;

  // kHierarchical: per-domain dense APSP matrix (n*n, row-major) of
  // intra-domain delays.
  std::vector<std::vector<double>> intra_dist_;

  // kLandmark: per host, exact distances to its domain's `intra_stride_`
  // landmarks (row-major host x stride; column 0 is the gateway).
  int intra_stride_ = 0;
  std::vector<double> host_landmark_dist_;

  // Flat edge list kept for validation/export (empty if gated off).
  std::vector<FlatEdge> flat_edges_;
};

// Samples `pairs` distinct random host pairs from `rng` and compares
// approx.Delay against exact.Delay (the two topologies must describe the
// same graph, i.e. be generated from the same params-modulo-delay_model and
// seed). Used by the accuracy-gate test and the delay-oracle microbench.
struct DelayAccuracy {
  int pairs = 0;
  double mean_rel_err = 0.0;
  double max_rel_err = 0.0;   // over pairs with exact delay > 0
  double max_abs_err_ms = 0.0;
  // Pairs violating BOTH the relative and the absolute budget.
  int gate_violations = 0;
};
DelayAccuracy CompareDelayOracles(const Topology& approx,
                                  const Topology& exact, int pairs,
                                  double rel_budget, double abs_budget_ms,
                                  rnd::Rng& rng);

// Dijkstra over an explicit edge list; returns distances from `source`.
// Exposed for tests and for small custom graphs.
std::vector<double> Dijkstra(int node_count, const std::vector<FlatEdge>& edges,
                             int source);

}  // namespace omcast::net
