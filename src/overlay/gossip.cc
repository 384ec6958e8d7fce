#include "overlay/gossip.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"

namespace omcast::overlay {

static_assert(kGossipExchangeSize > 0, "gossip exchange must ship entries");
static_assert(kGossipPeriodS > 0.0, "gossip period must be positive");

GossipService::GossipService(Session& session, GossipParams params,
                             std::uint64_t seed)
    : session_(session), params_(params), rng_(seed) {
  util::Check(params_.view_size > 0, "gossip view must hold entries");
  // The largest merge: a full view plus a bootstrap batch and the parent.
  merge_buffer_.reserve(static_cast<std::size_t>(params_.view_size) +
                        static_cast<std::size_t>(kGossipExchangeSize) + 1);
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
                 static_cast<std::size_t>(kGossipExchangeSize)))
          bootstrap.push_back({m, now});
        Merge(id, bootstrap);
        // The source keeps no view: it never ticks, and no member asks it
        // for peers.
        if (parent == kRootId) return;
        SampleSlice(parent, pull_slice_);
        Merge(id, pull_slice_);
        const Entry joiner{id, now};
        Merge(parent, {&joiner, 1});
      });
  session_.hooks().AddOnMemberDeparted(
      [this](const Member& m) { Deactivate(m.id); });
}

GossipService::View& GossipService::ViewFor(NodeId member) {
  util::Check(member >= 0, "gossip view of no member");
  const auto slot = static_cast<std::size_t>(member);
  if (slot >= views_.size()) views_.resize(slot + 1);
  return views_[slot];
}

const GossipService::View* GossipService::FindView(NodeId member) const {
  const auto slot = static_cast<std::size_t>(member);
  return member >= 0 && slot < views_.size() ? &views_[slot] : nullptr;
}

void GossipService::Activate(NodeId member) {
  View& view = ViewFor(member);
  if (view.active) return;
  view.active = true;
  // Desynchronize the first tick.
  view.timer = session_.simulator().ScheduleAfter(
      rng_.Uniform(0.0, kGossipPeriodS), [this, member] { Tick(member); },
      "gossip.tick");
}

void GossipService::Deactivate(NodeId member) {
  View& view = ViewFor(member);
  view.active = false;
  if (view.timer != sim::kInvalidEventId) {
    session_.simulator().Cancel(view.timer);
    view.timer = sim::kInvalidEventId;
  }
  // Nothing reads a departed member's view: give its slots back.
  std::vector<Entry>().swap(view.entries);
  view.oldest = std::numeric_limits<double>::infinity();
}

void GossipService::Prune(View& view, double now) {
  // Subtraction is monotone, so while the bound is within the TTL no entry
  // is past it: this skips exactly the scans that would remove nothing.
  if (now - view.oldest <= kGossipEntryTtlS) return;
  std::erase_if(view.entries, [&](const Entry& e) {
    return now - e.heard_at > kGossipEntryTtlS;
  });
  view.oldest = std::numeric_limits<double>::infinity();
  for (const Entry& e : view.entries)
    view.oldest = std::min(view.oldest, e.heard_at);
}

void GossipService::SampleSlice(NodeId member, std::vector<Entry>& slice) {
  View& view = ViewFor(member);
  // Never ship expired records (a responding member filters its own view
  // as it answers, even if its periodic prune has not run yet).
  Prune(view, session_.simulator().now());
  slice.assign(view.entries.begin(), view.entries.end());
  rng_.SampleWithoutReplacementInPlace(
      slice, static_cast<std::size_t>(kGossipExchangeSize) - 1);
  // A member always advertises itself with a fresh timestamp.
  slice.push_back({member, session_.simulator().now()});
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

void GossipService::Merge(NodeId member, std::span<const Entry> incoming) {
  View& view = ViewFor(member);
  view.entries.reserve(static_cast<std::size_t>(params_.view_size));
  const double now = session_.simulator().now();
  // The view grows past view_size before it is cut back, so the merge runs
  // in the buffer; the same steps on the same sequence keep the order.
  std::vector<Entry>& merged = merge_buffer_;
  merged.assign(view.entries.begin(), view.entries.end());
  // Index the view by id once, so each incoming record finds its entry in
  // O(1): the merge costs O(view + incoming), not O(view * incoming).
  if (++merge_epoch_ == 0) {  // wrapped: no stale stamp may match again
    std::fill(index_stamp_.begin(), index_stamp_.end(), 0);
    merge_epoch_ = 1;
  }
  for (std::size_t pos = 0; pos < merged.size(); ++pos)
    IndexEntry(merged[pos].id, static_cast<std::uint32_t>(pos));
  for (const Entry& in : incoming) {
    // Refuse entries that are already past the TTL: without this filter
    // stale records circulate between views as an epidemic, re-entering
    // each view faster than its periodic prune can remove them.
    if (now - in.heard_at > kGossipEntryTtlS) {
      ++stale_rejections_;
      continue;
    }
    // Self-records are ignored, and the source is implicitly known
    // (bootstrap): keeping it out of views makes every view slot carry
    // information.
    if (in.id == member || in.id == kRootId) continue;
    const auto slot = static_cast<std::size_t>(in.id);
    if (slot < index_stamp_.size() && index_stamp_[slot] == merge_epoch_) {
      Entry& known = merged[index_pos_[slot]];
      known.heard_at = std::max(known.heard_at, in.heard_at);
    } else {
      IndexEntry(in.id, static_cast<std::uint32_t>(merged.size()));
      merged.push_back(in);
      view.oldest = std::min(view.oldest, in.heard_at);
    }
  }
  if (static_cast<int>(merged.size()) > params_.view_size) {
    // Keep the freshest view_size entries.
    std::nth_element(merged.begin(), merged.begin() + params_.view_size,
                     merged.end(), [](const Entry& a, const Entry& b) {
                       return a.heard_at > b.heard_at;
                     });
    merged.resize(static_cast<std::size_t>(params_.view_size));
  }
  view.entries.assign(merged.begin(), merged.end());
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
             static_cast<std::size_t>(kGossipExchangeSize)))
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
    SampleSlice(member, push_slice_);
    SampleSlice(partner, pull_slice_);
    Merge(partner, push_slice_);
    Merge(member, pull_slice_);
    // The contact itself is fresh news. Merge may have reordered and cut
    // the view (nth_element), so this refreshes whichever entry now sits at
    // `pick`, not always the partner; fixing it changes every output.
    view.entries[pick].heard_at = now;
    ++exchanges_;
    break;
  }
  view.timer = session_.simulator().ScheduleAfter(
      kGossipPeriodS, [this, member] { Tick(member); }, "gossip.tick");
}

std::vector<NodeId> GossipService::KnownMembers(Session& session,
                                                NodeId requester, int k) {
  // A member mid-(re)join uses its accumulated view; a brand-new member has
  // none yet and falls back to querying the bootstrap service (modelled as
  // a uniform sample, exactly the paper's "queries the existing members for
  // information about other participants").
  const View* view = FindView(requester);
  if (view != nullptr && !view->entries.empty()) {
    std::vector<NodeId> ids;
    ids.reserve(view->entries.size());
    for (const Entry& e : view->entries) ids.push_back(e.id);
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
  const View* view = FindView(member);
  return view == nullptr ? 0 : view->entries.size();
}

std::size_t GossipService::view_slots() const {
  std::size_t slots = merge_buffer_.capacity();
  for (const View& view : views_) slots += view.entries.capacity();
  return slots;
}

}  // namespace omcast::overlay
