#include "overlay/session.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"

namespace omcast::overlay {

void Protocol::OnAttached(Session&, NodeId) {}
void Protocol::OnDeparture(Session&, NodeId) {}
void Protocol::OnOrphaned(Session&, NodeId) {}
void Protocol::OnPrepopulated(Session&, NodeId) {}
void Protocol::SetFaultPlane(sim::FaultPlane*) {}
void Protocol::ExportCounters(obs::Registry&) const {}
long Protocol::WedgedLeases(sim::Time) const { return 0; }

void SessionHooks::AddOnDeparture(std::function<void(NodeId)> fn) {
  on_departure_.push_back(std::move(fn));
}
void SessionHooks::AddOnDisruption(std::function<void(NodeId, NodeId)> fn) {
  on_disruption_.push_back(std::move(fn));
}
void SessionHooks::AddOnAttached(std::function<void(NodeId, NodeId)> fn) {
  on_attached_.push_back(std::move(fn));
}
void SessionHooks::AddOnMemberDeparted(std::function<void(const Member&)> fn) {
  on_member_departed_.push_back(std::move(fn));
}
void SessionHooks::FireDeparture(NodeId departed) const {
  for (const auto& fn : on_departure_) fn(departed);
}
void SessionHooks::FireDisruption(NodeId affected, NodeId failed) const {
  for (const auto& fn : on_disruption_) fn(affected, failed);
}
void SessionHooks::FireAttached(NodeId id, NodeId parent) const {
  for (const auto& fn : on_attached_) fn(id, parent);
}
void SessionHooks::FireMemberDeparted(const Member& member) const {
  for (const auto& fn : on_member_departed_) fn(member);
}

namespace {

// A failed join retries after kJoinRetryDelayS times a backoff that doubles
// per failed attempt: up to kJoinRetryMaxBackoff for TryJoin, uncapped for a
// re-entry, whose attempt limit bounds it (16 after the fifth attempt).
// After kFragmentDissolveAfterAttempts failed attempts a stuck fragment root
// releases its children.
constexpr double kJoinRetryDelayS = 1.0;
constexpr int kJoinRetryMaxBackoff = 8;
constexpr int kFragmentDissolveAfterAttempts = 3;
// A re-entry (ScheduleReentry) makes at most this many join attempts before
// abandoning: unlike a fresh join, a returning viewer gives up and leaves
// for good when the overlay repeatedly refuses it.
constexpr int kReentryMaxAttempts = 6;
static_assert(kReentryMaxAttempts - 2 <= 30,
              "a re-entry's largest backoff, 1 << (kReentryMaxAttempts - 2), "
              "must fit an int");

// How long the broadcast has been running before t=0. Pre-populated ages are
// drawn from the stationary renewal distribution *truncated* at this
// horizon: a live-streaming session is hours old, not infinitely old, and
// with the heavy-tailed lifetime distribution an untruncated stationary
// state is dominated by members aged 10^5..10^6 s, which collapses any
// bandwidth-time trade-off into pure time ordering. Six hours matches the
// horizon of the paper's own experiments (Figs. 6/9 span 300+ minutes of
// steady state).
constexpr double kPrepopulateAgeHorizonS = 21600.0;

// Root host is drawn first so the tree root is a random stub node, as in the
// paper ("the server's location is fixed at a randomly chosen stub node").
net::HostId DrawRootHost(const net::Topology& topology, std::uint64_t seed) {
  rnd::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  return static_cast<net::HostId>(
      rng.UniformIndex(static_cast<std::size_t>(topology.num_stub_nodes())));
}

}  // namespace

void ValidateSessionParams(const SessionParams& params) {
  // Bandwidth is in units of the stream rate (overlay/member.h).
  util::Check(params.root_bandwidth >= 1.0,
              "the source must be able to feed at least one child");
  util::Check(params.candidate_sample_size >= 1,
              "joining needs at least one discovery candidate");
  util::Check(params.rejoin_delay_s >= 0.0,
              "rejoin delay must be non-negative");
}

Session::Session(sim::Simulator& simulator, const net::Topology& topology,
                 std::unique_ptr<Protocol> protocol, SessionParams params,
                 std::uint64_t seed)
    : sim_(simulator),
      topology_(topology),
      tree_(DrawRootHost(topology, seed), params.root_bandwidth),
      protocol_(std::move(protocol)),
      params_(params),
      rng_(seed) {
  util::Check(protocol_ != nullptr, "session requires a protocol");
  ValidateSessionParams(params_);
  // All hosts except the root's start free, in random order.
  const net::HostId root_host = tree_.Get(kRootId).host;
  free_hosts_.reserve(static_cast<std::size_t>(topology_.num_stub_nodes()) - 1);
  for (int h = 0; h < topology_.num_stub_nodes(); ++h)
    if (h != root_host) free_hosts_.push_back(h);
  rng_.Shuffle(free_hosts_);
  alive_index_.assign(1, -1);  // root slot
  departure_event_.assign(1, sim::kInvalidEventId);
  join_attempts_.assign(1, 0);
  ever_attached_.assign(1, 1);  // the root is always attached
  reentry_predecessor_.assign(1, kNoNode);
}

net::HostId Session::AllocateHost() {
  util::Check(!free_hosts_.empty(), "no free stub host");
  const net::HostId h = free_hosts_.back();
  free_hosts_.pop_back();
  return h;
}

void Session::ReleaseHost(net::HostId host) {
  // Re-insert at a random position to keep future draws uniform.
  free_hosts_.push_back(host);
  const std::size_t j = rng_.UniformIndex(free_hosts_.size());
  std::swap(free_hosts_[j], free_hosts_.back());
}

NodeId Session::CreateMemberRecord(double bandwidth, double lifetime_s,
                                   sim::Time join_time) {
  const net::HostId host = AllocateHost();
  const NodeId id = tree_.CreateMember(host, bandwidth, join_time, lifetime_s);
  alive_index_.resize(tree_.size(), -1);
  departure_event_.resize(tree_.size(), sim::kInvalidEventId);
  join_attempts_.resize(tree_.size(), 0);
  ever_attached_.resize(tree_.size(), 0);
  reentry_predecessor_.resize(tree_.size(), kNoNode);
  alive_index_[static_cast<std::size_t>(id)] = static_cast<int>(alive_.size());
  alive_.push_back(id);
  ++total_created_;
  return id;
}

void Session::ScheduleDeparture(NodeId id) {
  const Member& m = tree_.Get(id);
  const sim::Time when = m.join_time + m.lifetime;
  util::Check(when >= sim_.now(), "departure must be in the future");
  departure_event_[static_cast<std::size_t>(id)] = sim_.ScheduleAt(
      when, [this, id] { HandleDeparture(id); }, "session.departure");
}

void Session::Prepopulate(int count) {
  util::Check(sim_.now() == 0.0, "prepopulate only at time 0");
  util::Check(count < topology_.num_stub_nodes(),
              "population exceeds host count");
  const double mu = kMemberLifetimeDist.mu();
  const double sigma = kMemberLifetimeDist.sigma();
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    // Stationary renewal state: lifetime is length-biased, which for a
    // lognormal(mu, sigma) is lognormal(mu + sigma^2, sigma); the age is a
    // uniform fraction of it. Ages beyond the broadcast's history horizon
    // are rejected (no member can predate the stream).
    double biased_lifetime = 0.0;
    double age = 0.0;
    for (int attempt = 0; attempt < 256; ++attempt) {
      biased_lifetime = rng_.Lognormal(mu + sigma * sigma, sigma);
      age = rng_.Uniform(0.0, 1.0) * biased_lifetime;
      if (age <= kPrepopulateAgeHorizonS) break;
      age = kPrepopulateAgeHorizonS;  // clamp if rejection fails
    }
    const double bandwidth = kMemberBandwidthDist.Sample(rng_);
    ids.push_back(CreateMemberRecord(bandwidth, biased_lifetime, -age));
  }
  // Join oldest-first: this replays the historical join order of a system
  // that has been running since before t=0, so age-sensitive protocols see
  // exactly the sequence they would have seen live (joining in random order
  // instead triggers an eviction storm in the time-ordered algorithms,
  // which never happens in a real deployment).
  //
  // The replay can stall: cumulative spare capacity is a random walk with
  // positive drift but heavy-tailed steps (55.5% free-riders), and a cold
  // replay hits zero with non-trivial probability even though the *real*
  // system demonstrably never did (it reached this population). When a join
  // finds no headroom, the strongest waiting member is attached first --
  // the minimal perturbation of history that keeps the replay viable.
  for (NodeId id : ids) ScheduleDeparture(id);
  std::sort(ids.begin(), ids.end(), [this](NodeId a, NodeId b) {
    return tree_.Get(a).join_time < tree_.Get(b).join_time;
  });
  std::vector<NodeId> by_capacity = ids;
  std::sort(by_capacity.begin(), by_capacity.end(), [this](NodeId a, NodeId b) {
    return tree_.Capacity(a) > tree_.Capacity(b);
  });
  std::size_t strongest = 0;
  // Rooted spare capacity is tracked in closed form: protocol reshuffles
  // (evictions, switches) move slots around but never change the total.
  long spare = tree_.Capacity(kRootId);
  const auto attach_now = [this, &spare](NodeId id) {
    if (tree_.Parent(id) != kNoNode) return true;  // already injected
    if (!protocol_->TryAttach(*this, id)) return false;
    spare += tree_.Capacity(id) - 1;
    join_attempts_[static_cast<std::size_t>(id)] = 0;
    protocol_->OnAttached(*this, id);
    protocol_->OnPrepopulated(*this, id);
    TraceAttached(id);
    hooks_.FireAttached(id, tree_.Parent(id));
    return true;
  };
  const auto inject_strongest = [&](NodeId skip) {
    while (strongest < by_capacity.size() &&
           tree_.Parent(by_capacity[strongest]) != kNoNode)
      ++strongest;
    if (strongest >= by_capacity.size() || by_capacity[strongest] == skip)
      return false;
    return attach_now(by_capacity[strongest]);
  };
  for (NodeId id : ids) {
    if (tree_.Parent(id) != kNoNode) continue;  // already injected
    // Keep the replay out of capacity ruin: attaching `id` must leave at
    // least one spare slot, so pull capacity providers forward as needed.
    const long need = std::max<long>(1, 2 - tree_.Capacity(id));
    while (spare < need && inject_strongest(id)) {
    }
    if (spare < 1 || !attach_now(id)) TryJoin(id);
  }
}

void Session::StartArrivals(double rate_per_s) {
  util::Check(rate_per_s > 0.0, "arrival rate must be positive");
  arrival_rate_ = rate_per_s;
  arrivals_on_ = true;
  ScheduleNextArrival();
}

void Session::StopArrivals() { arrivals_on_ = false; }

void Session::ScheduleNextArrival() {
  if (!arrivals_on_) return;
  const double gap = rng_.ExponentialMean(1.0 / arrival_rate_);
  sim_.ScheduleAfter(gap, [this] { Arrive(); }, "session.arrival");
}

void Session::Arrive() {
  if (!arrivals_on_) return;
  ScheduleNextArrival();
  if (free_hosts_.empty()) {
    ++dropped_arrivals_;
    return;
  }
  const double bandwidth = kMemberBandwidthDist.Sample(rng_);
  const double lifetime = kMemberLifetimeDist.Sample(rng_);
  const NodeId id = CreateMemberRecord(bandwidth, lifetime, sim_.now());
  ScheduleDeparture(id);
  TryJoin(id);
}

NodeId Session::InjectMember(double bandwidth, double lifetime_s) {
  util::Check(!free_hosts_.empty(), "no free stub host for injection");
  const NodeId id = CreateMemberRecord(bandwidth, lifetime_s, sim_.now());
  ScheduleDeparture(id);
  TryJoin(id);
  return id;
}

void Session::TryJoin(NodeId id) {
  if (!tree_.Alive(id)) return;
  util::Check(tree_.Parent(id) == kNoNode, "member already attached");
  if (protocol_->TryAttach(*this, id)) {
    util::Check(tree_.Parent(id) != kNoNode, "TryAttach true but not attached");
    join_attempts_[static_cast<std::size_t>(id)] = 0;
    protocol_->OnAttached(*this, id);
    TraceAttached(id);
    hooks_.FireAttached(id, tree_.Parent(id));
    return;
  }
  ++failed_join_attempts_;
  int& attempts = join_attempts_[static_cast<std::size_t>(id)];
  ++attempts;

  // A persistently stuck fragment dissolves: its children (whose own
  // failure detection has fired by now) rejoin on their own, freeing their
  // subtree capacity for the overlay.
  if (attempts == kFragmentDissolveAfterAttempts &&
      tree_.ChildCount(id) != 0) {
    const std::vector<NodeId> children = tree_.Children(id);
    for (NodeId c : children) {
      tree_.Detach(c);
      if (tracer_ != nullptr)
        tracer_->Emit(sim_.now(), obs::EventKind::kOrphaned, c, id,
                      /*detail=*/2);
      protocol_->OnOrphaned(*this, c);
      TryJoin(c);
    }
  }

  const int backoff =
      std::min(1 << std::min(attempts - 1, 10), kJoinRetryMaxBackoff);
  // Guarded: with an external failure detector a second join path
  // (RejoinOrphan) can attach the member while this retry is in flight.
  sim_.ScheduleAfter(
      kJoinRetryDelayS * backoff,
      [this, id] {
        if (tree_.Alive(id) && tree_.Parent(id) == kNoNode) TryJoin(id);
      },
      "session.join_retry");
}

void Session::TraceAttached(NodeId id) {
  char& ever = ever_attached_[static_cast<std::size_t>(id)];
  if (tracer_ != nullptr) {
    tracer_->Emit(sim_.now(),
                  ever ? obs::EventKind::kRejoin : obs::EventKind::kJoin, id,
                  tree_.Parent(id));
  }
  ever = 1;
}

void Session::ForceRejoin(NodeId id) {
  util::Check(tree_.Alive(id) && tree_.Parent(id) == kNoNode,
              "ForceRejoin requires a detached, alive member");
  ++tree_.Get(id).reconnections;
  if (tracer_ != nullptr)
    tracer_->Emit(sim_.now(), obs::EventKind::kOrphaned, id, kNoNode,
                  /*detail=*/1);
  protocol_->OnOrphaned(*this, id);
  // Defer to an event so eviction cascades unwind instead of recursing.
  sim_.ScheduleAfter(
      0.0,
      [this, id] {
        if (tree_.Alive(id) && tree_.Parent(id) == kNoNode) TryJoin(id);
      },
      "session.rejoin");
}

void Session::ChargeDisruption(NodeId member) {
  if (!tree_.Alive(member)) return;
  ++tree_.Get(member).disruptions;
  hooks_.FireDisruption(member, member);
  tree_.ForEachDescendant(member, [this, member](NodeId desc) {
    if (!tree_.Alive(desc)) return;
    ++tree_.Get(desc).disruptions;
    hooks_.FireDisruption(desc, member);
  });
}

void Session::RemoveFromAlive(NodeId id) {
  const int idx = alive_index_[static_cast<std::size_t>(id)];
  util::Check(idx >= 0, "member not in alive set");
  const NodeId last = alive_.back();
  alive_[static_cast<std::size_t>(idx)] = last;
  alive_index_[static_cast<std::size_t>(last)] = idx;
  alive_.pop_back();
  alive_index_[static_cast<std::size_t>(id)] = -1;
}

void Session::DepartNow(NodeId id) {
  util::Check(id != kRootId, "the source never departs");
  const std::size_t slot = static_cast<std::size_t>(id);
  if (departure_event_[slot] == sim::kInvalidEventId ||
      !sim_.Cancel(departure_event_[slot])) {
    // Departure already ran (or is the currently-running event).
    if (!tree_.Alive(id)) return;
  }
  HandleDeparture(id);
}

void Session::HandleDeparture(NodeId id) {
  if (!tree_.Alive(id)) return;
  Member& m = tree_.Get(id);
  if (tracer_ != nullptr)
    tracer_->Emit(sim_.now(), obs::EventKind::kLeave, id, tree_.Parent(id));
  hooks_.FireDeparture(id);

  // Abrupt departure: every descendant suffers one streaming disruption
  // (Section 6, "Comparison of Tree Reliability").
  tree_.ForEachDescendant(id, [this, id](NodeId desc) {
    if (!tree_.Alive(desc)) return;
    ++tree_.Get(desc).disruptions;
    hooks_.FireDisruption(desc, id);
  });

  const std::vector<NodeId> orphans = tree_.RemoveFromTree(id);
  tree_.MarkDead(id);
  RemoveFromAlive(id);
  ReleaseHost(m.host);
  protocol_->OnDeparture(*this, id);
  hooks_.FireMemberDeparted(m);

  // Children (with their subtrees intact) rejoin through the protocol.
  // Rejoins after a failure are not protocol overhead. Under external
  // failure detection the orphan does not yet *know* its parent died: the
  // detector (heartbeat misses) calls RejoinOrphan() once it notices.
  for (NodeId c : orphans) {
    if (tracer_ != nullptr)
      tracer_->Emit(sim_.now(), obs::EventKind::kOrphaned, c, id,
                    /*detail=*/0);
    protocol_->OnOrphaned(*this, c);
    if (params_.external_failure_detection) continue;
    if (params_.rejoin_delay_s > 0.0) {
      sim_.ScheduleAfter(
          params_.rejoin_delay_s,
          [this, c] {
            if (tree_.Alive(c) && tree_.Parent(c) == kNoNode) TryJoin(c);
          },
          "session.rejoin");
    } else {
      TryJoin(c);
    }
  }
}

void Session::RejoinOrphan(NodeId id) {
  util::Check(params_.external_failure_detection,
              "RejoinOrphan is the external failure detector's entry point");
  if (tree_.Alive(id) && tree_.Parent(id) == kNoNode) TryJoin(id);
}

void Session::ScheduleReentry(NodeId departed, double downtime_s,
                              double lifetime_s) {
  util::Check(departed != kRootId, "the source never re-enters");
  util::Check(downtime_s >= 0.0, "downtime must be non-negative");
  util::Check(lifetime_s > 0.0, "re-entry lifetime must be positive");
  ++reentries_scheduled_;
  sim_.ScheduleAfter(
      downtime_s,
      [this, departed, lifetime_s] { BeginReentry(departed, lifetime_s); },
      "session.reentry");
}

void Session::BeginReentry(NodeId predecessor, double lifetime_s) {
  if (free_hosts_.empty()) {
    // At host capacity the returning viewer finds no slot and gives up
    // without ever materializing (detail 0 = no attempt was possible).
    ++reentries_abandoned_;
    if (tracer_ != nullptr)
      tracer_->Emit(sim_.now(), obs::EventKind::kReconnectAbandoned, kNoNode,
                    predecessor, 0);
    return;
  }
  // Same household, new session: the successor inherits the predecessor's
  // bandwidth (its record persists after death) but nothing else.
  const double bandwidth = tree_.Get(predecessor).bandwidth;
  const NodeId id = CreateMemberRecord(bandwidth, lifetime_s, sim_.now());
  reentry_predecessor_[static_cast<std::size_t>(id)] = predecessor;
  ScheduleDeparture(id);
  if (tracer_ != nullptr)
    tracer_->Emit(sim_.now(), obs::EventKind::kReconnectStart, id, predecessor);
  ReentryAttempt(id, predecessor);
}

void Session::ReentryAttempt(NodeId id, NodeId predecessor) {
  // The member can expire (lifetime) while detached mid-retry; a scheduled
  // retry after that must be a no-op.
  if (!tree_.Alive(id) || tree_.Parent(id) != kNoNode) return;
  const int attempt = join_attempts_[static_cast<std::size_t>(id)] + 1;
  if (protocol_->TryAttach(*this, id)) {
    util::Check(tree_.Parent(id) != kNoNode, "TryAttach true but not attached");
    join_attempts_[static_cast<std::size_t>(id)] = 0;
    ++reentries_attached_;
    protocol_->OnAttached(*this, id);
    TraceAttached(id);
    if (tracer_ != nullptr)
      tracer_->Emit(sim_.now(), obs::EventKind::kReconnectAttached, id,
                    predecessor, attempt);
    hooks_.FireAttached(id, tree_.Parent(id));
    return;
  }
  ++failed_join_attempts_;
  join_attempts_[static_cast<std::size_t>(id)] = attempt;
  if (attempt >= kReentryMaxAttempts) {
    // A returning viewer that the overlay keeps refusing leaves for good --
    // the bounded analog of TryJoin's unbounded persistence.
    ++reentries_abandoned_;
    if (tracer_ != nullptr)
      tracer_->Emit(sim_.now(), obs::EventKind::kReconnectAbandoned, id,
                    predecessor, attempt);
    DepartNow(id);
    return;
  }
  sim_.ScheduleAfter(
      kJoinRetryDelayS * (1 << (attempt - 1)),
      [this, id, predecessor] { ReentryAttempt(id, predecessor); },
      "session.reentry_retry");
}

NodeId Session::ReentryPredecessor(NodeId id) const {
  return reentry_predecessor_[static_cast<std::size_t>(id)];
}

std::vector<NodeId> Session::SampleCandidates(int k, NodeId exclude) {
  // Gossip spreads knowledge of members that are *in* the overlay, so keep
  // drawing until k tree members are found (bounded so a heavily fragmented
  // overlay cannot loop forever).
  const std::size_t want = static_cast<std::size_t>(k) * 6 + 16;
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(k) + 1);
  // The source is known to every member via the bootstrap mechanism.
  out.push_back(kRootId);
  // Keeps rooted members outside `exclude`'s subtree; false once k are kept,
  // which leaves the rest of the sample unresolved.
  const auto keep = [&](NodeId id) {
    if (static_cast<int>(out.size()) > k) return false;
    if (tree_.IsRootedOutside(id, exclude)) out.push_back(id);
    return true;
  };
  if (oracle_ != nullptr) {
    for (NodeId id :
         oracle_->KnownMembers(*this, exclude, static_cast<int>(want)))
      if (!keep(id)) break;
  } else {
    rng_.VisitSampleWithoutReplacementFrom(alive_, want, keep);
  }
  return out;
}

std::vector<NodeId> Session::CollectJoinPool(int k, NodeId exclude) {
  std::vector<NodeId> pool = SampleCandidates(k, exclude);
  // Epoch-stamped dedup: allocating and zeroing a fresh O(members) bitmap
  // here made every join O(N) at 10^6 members; bumping the epoch retires
  // all stale stamps in O(1).
  seen_stamp_.resize(tree_.size(), 0);
  const int epoch = ++seen_epoch_;
  for (NodeId id : pool) seen_stamp_[static_cast<std::size_t>(id)] = epoch;
  // Breadth-first prefix from the root (cannot reach detached fragments,
  // so `exclude`'s subtree is naturally skipped).
  std::vector<NodeId> frontier = {kRootId};
  int examined = 0;
  std::size_t head = 0;
  while (head < frontier.size() && examined < k) {
    const NodeId cur = frontier[head++];
    ++examined;
    if (seen_stamp_[static_cast<std::size_t>(cur)] != epoch) {
      seen_stamp_[static_cast<std::size_t>(cur)] = epoch;
      pool.push_back(cur);
    }
    for (NodeId c : tree_.ChildrenOf(cur)) frontier.push_back(c);
  }
  return pool;
}

double Session::DelayMs(NodeId a, NodeId b) const {
  return topology_.Delay(tree_.Get(a).host, tree_.Get(b).host);
}

double Session::OverlayDelayMs(NodeId id) const {
  util::Check(tree_.IsRooted(id), "overlay delay needs a rooted member");
  double total = 0.0;
  NodeId cur = id;
  while (cur != kRootId) {
    const NodeId p = tree_.Parent(cur);
    total += DelayMs(p, cur);
    cur = p;
  }
  return total;
}

double Session::UnicastDelayMs(NodeId id) const { return DelayMs(kRootId, id); }

double Session::Stretch(NodeId id) const {
  const double direct = UnicastDelayMs(id);
  if (direct <= 0.0) return 1.0;  // co-located with the source
  return OverlayDelayMs(id) / direct;
}

}  // namespace omcast::overlay
