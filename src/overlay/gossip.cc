#include "overlay/gossip.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"

namespace omcast::overlay {

GossipService::GossipService(Session& session, GossipParams params,
                             std::uint64_t seed)
    : session_(session), params_(params), rng_(seed) {
  util::Check(params_.view_size > 0, "gossip view must hold entries");
  util::Check(params_.period_s > 0.0, "gossip period must be positive");
  session_.hooks().AddOnAttached(
      [this](NodeId id, NodeId parent) {
        Activate(id);
        // Bootstrap: the joiner already contacted a batch of members while
        // re-finding a parent (the paper's "queries the existing members
        // ... until it obtains a certain number of known members"); those
        // contacts seed its view, as do the parent and the parent's view.
        const double now = session_.simulator().now();
        std::vector<Entry> bootstrap = {{parent, now}};
        for (NodeId m : rng_.SampleWithoutReplacementFrom(
                 session_.alive_members(),
                 static_cast<std::size_t>(params_.exchange_size)))
          bootstrap.push_back({m, now});
        Merge(id, bootstrap);
        if (parent != kRootId) Merge(id, SampleSlice(parent));
        Merge(parent, {{id, now}});
      });
  session_.hooks().AddOnMemberDeparted(
      [this](const Member& m) { Deactivate(m.id); });
}

GossipService::View& GossipService::ViewFor(NodeId member) {
  return views_[member];  // value-initialized on first access
}

void GossipService::Activate(NodeId member) {
  View& view = ViewFor(member);
  if (view.active) return;
  view.active = true;
  // Desynchronize the first tick.
  view.timer = session_.simulator().ScheduleAfter(
      rng_.Uniform(0.0, params_.period_s), [this, member] { Tick(member); },
      "gossip.tick");
}

void GossipService::Deactivate(NodeId member) {
  View& view = ViewFor(member);
  view.active = false;
  if (view.timer != sim::kInvalidEventId) {
    session_.simulator().Cancel(view.timer);
    view.timer = sim::kInvalidEventId;
  }
  view.entries.clear();
}

void GossipService::Prune(View& view, double now) {
  std::erase_if(view.entries, [&](const Entry& e) {
    return now - e.heard_at > params_.entry_ttl_s;
  });
}

std::vector<GossipService::Entry> GossipService::SampleSlice(NodeId member) {
  View& view = ViewFor(member);
  // Never ship expired records (a responding member filters its own view
  // as it answers, even if its periodic prune has not run yet).
  Prune(view, session_.simulator().now());
  std::vector<Entry> slice = rng_.SampleWithoutReplacement(
      view.entries, static_cast<std::size_t>(params_.exchange_size) - 1);
  // A member always advertises itself with a fresh timestamp.
  slice.push_back({member, session_.simulator().now()});
  return slice;
}

void GossipService::IndexEntry(NodeId id, std::uint32_t pos) {
  const auto slot = static_cast<std::size_t>(id);
  if (slot >= index_stamp_.size()) {
    index_stamp_.resize(slot + 1, 0);
    index_pos_.resize(slot + 1, 0);
  }
  index_stamp_[slot] = merge_epoch_;
  index_pos_[slot] = pos;
}

void GossipService::Merge(NodeId member, const std::vector<Entry>& incoming) {
  View& view = ViewFor(member);
  const double now = session_.simulator().now();
  // Index the view by id once, so each incoming record finds its entry in
  // O(1): the merge costs O(view + incoming), not O(view * incoming).
  if (++merge_epoch_ == 0) {  // wrapped: no stale stamp may match again
    std::fill(index_stamp_.begin(), index_stamp_.end(), 0);
    merge_epoch_ = 1;
  }
  for (std::size_t pos = 0; pos < view.entries.size(); ++pos)
    IndexEntry(view.entries[pos].id, static_cast<std::uint32_t>(pos));
  for (const Entry& in : incoming) {
    // Refuse entries that are already past the TTL: without this filter
    // stale records circulate between views as an epidemic, re-entering
    // each view faster than its periodic prune can remove them.
    if (now - in.heard_at > params_.entry_ttl_s) {
      ++stale_rejections_;
      continue;
    }
    if (in.id == member || in.id == kRootId) {
      if (in.id == member) continue;
      // The source is implicitly known (bootstrap); keep it out of views so
      // every view slot carries information.
      continue;
    }
    const auto slot = static_cast<std::size_t>(in.id);
    if (slot < index_stamp_.size() && index_stamp_[slot] == merge_epoch_) {
      Entry& known = view.entries[index_pos_[slot]];
      known.heard_at = std::max(known.heard_at, in.heard_at);
    } else {
      IndexEntry(in.id, static_cast<std::uint32_t>(view.entries.size()));
      view.entries.push_back(in);
    }
  }
  if (static_cast<int>(view.entries.size()) > params_.view_size) {
    // Keep the freshest view_size entries.
    std::nth_element(view.entries.begin(),
                     view.entries.begin() + params_.view_size,
                     view.entries.end(), [](const Entry& a, const Entry& b) {
                       return a.heard_at > b.heard_at;
                     });
    view.entries.resize(static_cast<std::size_t>(params_.view_size));
  }
}

void GossipService::Tick(NodeId member) {
  View& view = ViewFor(member);
  view.timer = sim::kInvalidEventId;
  if (!view.active || !session_.tree().Alive(member)) return;
  const double now = session_.simulator().now();
  Prune(view, now);
  if (obs::Tracer* tracer = session_.tracer(); tracer != nullptr) {
    tracer->Emit(now, obs::EventKind::kGossipRound, member, kNoNode,
                 static_cast<std::int64_t>(view.entries.size()));
  }

  // A member whose view drained (isolation, mass departures) re-contacts
  // the bootstrap service for fresh peers.
  if (view.entries.empty()) {
    std::vector<Entry> seed;
    for (NodeId m : rng_.SampleWithoutReplacementFrom(
             session_.alive_members(),
             static_cast<std::size_t>(params_.exchange_size)))
      seed.push_back({m, now});
    Merge(member, seed);
  }

  // Contact a random live partner; dead contacts are detected and dropped.
  for (int attempt = 0; attempt < 3 && !view.entries.empty(); ++attempt) {
    const std::size_t pick = rng_.UniformIndex(view.entries.size());
    const NodeId partner = view.entries[pick].id;
    if (!session_.tree().Alive(partner)) {
      view.entries[pick] = view.entries.back();
      view.entries.pop_back();
      ++dead_contacts_;
      continue;
    }
    // Push-pull: exchange random slices.
    const auto mine = SampleSlice(member);
    const auto theirs = SampleSlice(partner);
    Merge(partner, mine);
    Merge(member, theirs);
    view.entries[pick].heard_at = now;  // the contact itself is fresh news
    ++exchanges_;
    break;
  }
  view.timer = session_.simulator().ScheduleAfter(
      params_.period_s, [this, member] { Tick(member); }, "gossip.tick");
}

std::vector<NodeId> GossipService::KnownMembers(Session& session,
                                                NodeId requester, int k) {
  // A member mid-(re)join uses its accumulated view; a brand-new member has
  // none yet and falls back to querying the bootstrap service (modelled as
  // a uniform sample, exactly the paper's "queries the existing members for
  // information about other participants").
  const auto it = requester != kNoNode ? views_.find(requester) : views_.end();
  if (it != views_.end() && !it->second.entries.empty()) {
    const View& view = it->second;
    std::vector<NodeId> ids;
    ids.reserve(view.entries.size());
    for (const Entry& e : view.entries) ids.push_back(e.id);
    return rng_.SampleWithoutReplacement(std::move(ids),
                                         static_cast<std::size_t>(k));
  }
  std::vector<NodeId> sample = session.rng().SampleWithoutReplacementFrom(
      session.alive_members(), static_cast<std::size_t>(k) + 1);
  std::erase(sample, requester);
  if (sample.size() > static_cast<std::size_t>(k)) sample.pop_back();
  return sample;
}

std::size_t GossipService::ViewSize(NodeId member) const {
  const auto it = views_.find(member);
  return it == views_.end() ? 0 : it->second.entries.size();
}

}  // namespace omcast::overlay
