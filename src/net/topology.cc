#include "net/topology.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "util/check.h"

namespace omcast::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// row[j] = min(row[j], dik + via[j]) for every j < n, on two distinct rows.
// Two columns a step let the compiler use one 2-wide add and min per step
// (branch-free: a branch on this data-dependent test mispredicts). Each
// column still gets the same IEEE add and min, so distances do not change.
void RelaxRow(double* __restrict row, const double* __restrict via,
              double dik, std::size_t n) {
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    row[j] = std::min(row[j], dik + via[j]);
    row[j + 1] = std::min(row[j + 1], dik + via[j + 1]);
  }
  if (j < n) row[j] = std::min(row[j], dik + via[j]);
}

// Floyd-Warshall over a dense matrix (row-major n*n), in place. Row k is
// not relaxed through itself: dist[k][k] is 0, so that pass changes
// nothing, and skipping it keeps the row read apart from the row written.
void FloydWarshall(int n, std::vector<double>& dist) {
  const auto un = static_cast<std::size_t>(n);
  for (std::size_t k = 0; k < un; ++k)
    for (std::size_t i = 0; i < un; ++i) {
      const double dik = dist[i * un + k];
      if (i == k || dik == kInf) continue;
      RelaxRow(&dist[i * un], &dist[k * un], dik, un);
    }
}

// Builds a connected random graph on `n` local nodes: a randomized ring
// guarantees connectivity, then each non-ring pair gets a chord with
// probability `chord_prob`. Returns local (a, b, delay) edges.
struct LocalEdge {
  int a = 0;
  int b = 0;
  double delay = 0.0;
};

std::vector<LocalEdge> ConnectedRandomGraph(int n, double chord_prob,
                                            double delay_lo, double delay_hi,
                                            rnd::Rng& rng) {
  std::vector<LocalEdge> edges;
  if (n <= 1) return edges;
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(order);
  for (int i = 0; i < n; ++i) {
    edges.push_back({order[i], order[(i + 1) % n],
                     rng.Uniform(delay_lo, delay_hi)});
    if (n == 2) break;  // a 2-ring would duplicate the single edge
  }
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(chord_prob))
        edges.push_back({i, j, rng.Uniform(delay_lo, delay_hi)});
    }
  return edges;
}

std::vector<double> ApspFromLocalEdges(int n,
                                       const std::vector<LocalEdge>& edges) {
  std::vector<double> dist(static_cast<std::size_t>(n) * n, kInf);
  for (int i = 0; i < n; ++i) dist[static_cast<std::size_t>(i) * n + i] = 0.0;
  for (const auto& e : edges) {
    double& ab = dist[static_cast<std::size_t>(e.a) * n + e.b];
    double& ba = dist[static_cast<std::size_t>(e.b) * n + e.a];
    if (e.delay < ab) ab = e.delay;
    if (e.delay < ba) ba = e.delay;
  }
  FloydWarshall(n, dist);
  return dist;
}

// Single-source shortest paths over local edges; O(E log V), no n^2 table.
std::vector<double> DistancesFrom(int n, const std::vector<LocalEdge>& edges,
                                  int source) {
  std::vector<std::vector<std::pair<int, double>>> adj(
      static_cast<std::size_t>(n));
  for (const auto& e : edges) {
    adj[static_cast<std::size_t>(e.a)].push_back({e.b, e.delay});
    adj[static_cast<std::size_t>(e.b)].push_back({e.a, e.delay});
  }
  std::vector<double> dist(static_cast<std::size_t>(n), kInf);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<std::size_t>(source)] = 0.0;
  pq.push({0.0, source});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& [v, w] : adj[static_cast<std::size_t>(u)]) {
      if (d + w < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = d + w;
        pq.push({dist[static_cast<std::size_t>(v)], v});
      }
    }
  }
  return dist;
}

}  // namespace

TopologyParams PaperTopologyParams() { return TopologyParams{}; }

TopologyParams TinyTopologyParams() {
  TopologyParams p;
  p.transit_domains = 2;
  p.transit_nodes_per_domain = 3;
  p.stub_domains_per_transit_node = 2;
  p.nodes_per_stub_domain = 8;
  return p;
}

TopologyParams SmallTopologyParams() {
  TopologyParams p;
  p.transit_domains = 6;
  p.transit_nodes_per_domain = 8;
  p.stub_domains_per_transit_node = 3;
  p.nodes_per_stub_domain = 16;  // 48 transit + 2304 stub hosts
  return p;
}

TopologyParams ScaleTopologyParams(int stub_hosts) {
  util::Check(stub_hosts >= 1, "need >= 1 stub host");
  TopologyParams p;
  p.transit_domains = 10;
  p.transit_nodes_per_domain = 10;  // 100 transit nodes
  p.nodes_per_stub_domain = 50;
  const int domains = (stub_hosts + p.nodes_per_stub_domain - 1) /
                      p.nodes_per_stub_domain;
  p.stub_domains_per_transit_node = std::max(1, (domains + 99) / 100);
  p.delay_model = DelayModel::kLandmark;
  p.keep_flat_edges = false;
  return p;
}

Topology Topology::Generate(const TopologyParams& params, rnd::Rng& rng) {
  util::Check(params.transit_domains >= 1, "need >= 1 transit domain");
  util::Check(params.transit_nodes_per_domain >= 1, "need >= 1 transit node");
  util::Check(params.stub_domains_per_transit_node >= 1,
              "need >= 1 stub domain per transit node");
  util::Check(params.nodes_per_stub_domain >= 1, "need >= 1 node per stub");

  Topology t;
  t.params_ = params;
  t.num_transit_nodes_ =
      params.transit_domains * params.transit_nodes_per_domain;
  t.num_stub_domains_ =
      t.num_transit_nodes_ * params.stub_domains_per_transit_node;
  t.num_stub_nodes_ = t.num_stub_domains_ * params.nodes_per_stub_domain;

  const int T = t.num_transit_nodes_;
  const int tn = params.transit_nodes_per_domain;

  // --- Transit core: intra-domain connected graphs + inter-domain links.
  std::vector<LocalEdge> core_edges;  // over global transit indices
  for (int d = 0; d < params.transit_domains; ++d) {
    const int base = d * tn;
    for (const auto& e : ConnectedRandomGraph(
             tn, kIntraTransitChordProb, kTransitTransitDelayLoMs,
             kTransitTransitDelayHiMs, rng)) {
      core_edges.push_back({base + e.a, base + e.b, e.delay});
    }
  }
  // Domain-level connectivity: randomized ring over domains plus chords;
  // each domain-level edge lands on random transit nodes of the two domains.
  if (params.transit_domains > 1) {
    std::vector<int> order(params.transit_domains);
    for (int i = 0; i < params.transit_domains; ++i) order[i] = i;
    rng.Shuffle(order);
    auto add_interdomain = [&](int da, int db) {
      const int a = da * tn + rng.UniformInt(0, tn - 1);
      const int b = db * tn + rng.UniformInt(0, tn - 1);
      core_edges.push_back(
          {a, b, rng.Uniform(kTransitTransitDelayLoMs,
                             kTransitTransitDelayHiMs)});
    };
    for (int i = 0; i < params.transit_domains; ++i) {
      add_interdomain(order[i], order[(i + 1) % params.transit_domains]);
      if (params.transit_domains == 2) break;
    }
    for (int i = 0; i < params.transit_domains; ++i)
      for (int j = i + 1; j < params.transit_domains; ++j)
        if (rng.Bernoulli(kInterTransitChordProb))
          add_interdomain(i, j);
  }
  // The core APSP is constant in host count (T^2 doubles); both delay
  // models keep it exact.
  const bool landmark = params.delay_model == DelayModel::kLandmark;
  t.transit_dist_ = ApspFromLocalEdges(T, core_edges);

  // Flat-edge numbering: stub host h -> h, transit node x -> stub_nodes + x.
  if (params.keep_flat_edges) {
    for (const auto& e : core_edges)
      t.flat_edges_.push_back(
          {t.num_stub_nodes_ + e.a, t.num_stub_nodes_ + e.b, e.delay});
  }

  // --- Stub domains. Each domain is generated, measured, and dropped in
  // one pass so the transient edge lists never accumulate at 10^6 hosts.
  // The rng draw order (graph, gateway index, gateway edge) is identical in
  // both delay models: the graphs are bit-identical given the same seed.
  const int ns = params.nodes_per_stub_domain;
  const int k = std::min(std::max(params.intra_landmarks, 1), ns);
  t.intra_stride_ = k;
  t.gateway_index_.resize(static_cast<std::size_t>(t.num_stub_domains_));
  t.gateway_edge_delay_.resize(static_cast<std::size_t>(t.num_stub_domains_));
  if (landmark)
    t.host_landmark_dist_.resize(static_cast<std::size_t>(t.num_stub_nodes_) *
                                 static_cast<std::size_t>(k));
  else
    t.intra_dist_.resize(static_cast<std::size_t>(t.num_stub_domains_));
  for (int d = 0; d < t.num_stub_domains_; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    const std::vector<LocalEdge> edges =
        ConnectedRandomGraph(ns, kIntraStubChordProb, kStubStubDelayLoMs,
                             kStubStubDelayHiMs, rng);
    t.gateway_index_[ud] = rng.UniformInt(0, ns - 1);
    t.gateway_edge_delay_[ud] =
        rng.Uniform(kTransitStubDelayLoMs, kTransitStubDelayHiMs);
    if (landmark) {
      // Greedy farthest-point intra-domain landmarks, seeded at the gateway
      // so column 0 doubles as the exact host->gateway leg.
      std::vector<double> nearest(static_cast<std::size_t>(ns), kInf);
      int next = t.gateway_index_[ud];
      const std::size_t base =
          ud * static_cast<std::size_t>(ns) * static_cast<std::size_t>(k);
      for (int j = 0; j < k; ++j) {
        const std::vector<double> row = DistancesFrom(ns, edges, next);
        for (int i = 0; i < ns; ++i) {
          const auto ui = static_cast<std::size_t>(i);
          t.host_landmark_dist_[base +
                                ui * static_cast<std::size_t>(k) +
                                static_cast<std::size_t>(j)] = row[ui];
          nearest[ui] = std::min(nearest[ui], row[ui]);
        }
        next = 0;
        for (int i = 1; i < ns; ++i)
          if (nearest[static_cast<std::size_t>(i)] >
              nearest[static_cast<std::size_t>(next)])
            next = i;
      }
    } else {
      t.intra_dist_[ud] = ApspFromLocalEdges(ns, edges);
    }
    if (params.keep_flat_edges) {
      const int base = d * ns;
      for (const auto& e : edges)
        t.flat_edges_.push_back({base + e.a, base + e.b, e.delay});
      t.flat_edges_.push_back({base + t.gateway_index_[ud],
                               t.num_stub_nodes_ + t.TransitOfDomain(d),
                               t.gateway_edge_delay_[ud]});
    }
  }
  return t;
}

int Topology::DomainOf(HostId h) const {
  util::Check(h >= 0 && h < num_stub_nodes_, "host id out of range");
  return h / params_.nodes_per_stub_domain;
}

int Topology::IndexInDomain(HostId h) const {
  return h % params_.nodes_per_stub_domain;
}

int Topology::TransitOfDomain(int domain) const {
  util::Check(domain >= 0 && domain < num_stub_domains_,
              "stub domain out of range");
  return domain / params_.stub_domains_per_transit_node;
}

double Topology::Delay(HostId a, HostId b) const {
  if (a == b) return 0.0;
  const int da = DomainOf(a);
  const int db = DomainOf(b);
  if (params_.delay_model == DelayModel::kLandmark) {
    const auto k = static_cast<std::size_t>(intra_stride_);
    const std::size_t ra = static_cast<std::size_t>(a) * k;
    const std::size_t rb = static_cast<std::size_t>(b) * k;
    // Same-domain: ALT midpoint over the domain's landmark columns.
    if (da == db) {
      double upper = kInf;
      double lower = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        const double la = host_landmark_dist_[ra + j];
        const double lb = host_landmark_dist_[rb + j];
        upper = std::min(upper, la + lb);
        lower = std::max(lower, std::abs(la - lb));
      }
      return 0.5 * (upper + lower);
    }
    // Cross-domain: exact host->gateway legs (landmark column 0) plus the
    // exact core APSP between the two attachment transit nodes -- identical
    // to the hierarchical oracle.
    const int lta = TransitOfDomain(da);
    const int ltb = TransitOfDomain(db);
    return host_landmark_dist_[ra] +
           gateway_edge_delay_[static_cast<std::size_t>(da)] +
           transit_dist_[static_cast<std::size_t>(lta) * num_transit_nodes_ +
                         ltb] +
           gateway_edge_delay_[static_cast<std::size_t>(db)] +
           host_landmark_dist_[rb];
  }
  const int n = params_.nodes_per_stub_domain;
  const int ia = IndexInDomain(a);
  const int ib = IndexInDomain(b);
  if (da == db) return intra_dist_[da][static_cast<std::size_t>(ia) * n + ib];
  const int ta = TransitOfDomain(da);
  const int tb = TransitOfDomain(db);
  const double to_gw_a =
      intra_dist_[da][static_cast<std::size_t>(ia) * n + gateway_index_[da]];
  const double to_gw_b =
      intra_dist_[db][static_cast<std::size_t>(ib) * n + gateway_index_[db]];
  const double core =
      transit_dist_[static_cast<std::size_t>(ta) * num_transit_nodes_ + tb];
  return to_gw_a + gateway_edge_delay_[da] + core + gateway_edge_delay_[db] +
         to_gw_b;
}

std::vector<FlatEdge> Topology::FlatEdges() const { return flat_edges_; }

std::size_t Topology::DelayTableBytes() const {
  std::size_t bytes = (transit_dist_.size() + host_landmark_dist_.size() +
                       gateway_edge_delay_.size()) *
                      sizeof(double);
  for (const auto& m : intra_dist_) bytes += m.size() * sizeof(double);
  return bytes;
}

DelayAccuracy CompareDelayOracles(const Topology& approx,
                                  const Topology& exact, int pairs,
                                  double rel_budget, double abs_budget_ms,
                                  rnd::Rng& rng) {
  util::Check(approx.num_stub_nodes() == exact.num_stub_nodes(),
              "oracle comparison needs topologies of the same size");
  const int hosts = exact.num_stub_nodes();
  DelayAccuracy acc;
  double rel_sum = 0.0;
  for (int i = 0; i < pairs; ++i) {
    const HostId a = rng.UniformInt(0, hosts - 1);
    const HostId b = rng.UniformInt(0, hosts - 1);
    const double truth = exact.Delay(a, b);
    const double est = approx.Delay(a, b);
    const double abs_err = std::abs(est - truth);
    const double rel_err = truth > 0.0 ? abs_err / truth : 0.0;
    rel_sum += rel_err;
    acc.max_rel_err = std::max(acc.max_rel_err, rel_err);
    acc.max_abs_err_ms = std::max(acc.max_abs_err_ms, abs_err);
    if (rel_err > rel_budget && abs_err > abs_budget_ms) ++acc.gate_violations;
    ++acc.pairs;
  }
  acc.mean_rel_err = acc.pairs > 0 ? rel_sum / acc.pairs : 0.0;
  return acc;
}

std::vector<double> Dijkstra(int node_count, const std::vector<FlatEdge>& edges,
                             int source) {
  util::Check(source >= 0 && source < node_count, "source out of range");
  std::vector<std::vector<std::pair<int, double>>> adj(node_count);
  for (const auto& e : edges) {
    adj[e.a].push_back({e.b, e.delay_ms});
    adj[e.b].push_back({e.a, e.delay_ms});
  }
  std::vector<double> dist(node_count, kInf);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0.0;
  pq.push({0.0, source});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (const auto& [v, w] : adj[u]) {
      if (d + w < dist[v]) {
        dist[v] = d + w;
        pq.push({dist[v], v});
      }
    }
  }
  return dist;
}

}  // namespace omcast::net
