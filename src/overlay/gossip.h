// Gossip-based membership service.
//
// The paper assumes that "during the multicast process, nodes periodically
// exchange neighbor information with each other, so each node will know
// about a medium-sized (e.g., 100) subset of other nodes" (Section 4.1).
// The experiment harness models this abstractly with uniform sampling; this
// module implements the real protocol so that assumption can be validated
// (see bench/ablation_gossip and the gossip tests):
//
//   * every member keeps a bounded partial view (default 100 entries) of
//     (member id, last-heard time) records;
//   * a fresh member bootstraps its view from the source and its parent;
//   * every period each member picks a random partner from its view and
//     performs a push-pull exchange of a random slice of entries; contacting
//     a dead partner removes it from the view;
//   * entries not refreshed within a TTL are pruned, so departed members
//     wash out of the views over a few periods.
//
// GossipService implements MembershipOracle, so a Session can run all
// join/recovery discovery over these views instead of uniform sampling.
//
// Storage and cost: a member's view holds exactly view_size entry slots from
// its first merge until it departs, when the slots are freed; the source
// keeps no view. Merges run in one service-owned buffer and the two slices
// of an exchange are sampled into two more, so a push-pull exchange
// allocates nothing. A prune scans a view only when its lower bound on
// heard_at says some entry can have expired.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <vector>

#include "overlay/session.h"
#include "rand/rng.h"

namespace omcast::overlay {

// Exchange period, entries shipped per push-pull, and the age past which an
// entry is pruned.
inline constexpr double kGossipPeriodS = 30.0;
inline constexpr int kGossipExchangeSize = 50;
inline constexpr double kGossipEntryTtlS = 300.0;

struct GossipParams {
  int view_size = 100;  // max entries per member
};

class GossipService final : public MembershipOracle {
 public:
  // One view record: a member and when news of it was last heard.
  struct Entry {
    NodeId id = kNoNode;
    double heard_at = 0.0;
  };

  // Installs hooks on `session`; construct before driving the session and
  // call session.SetMembershipOracle(&service) to route discovery here.
  GossipService(Session& session, GossipParams params, std::uint64_t seed);

  std::vector<NodeId> KnownMembers(Session& session, NodeId requester,
                                   int k) override;

  // --- introspection (tests / ablation / benches) -------------------------
  std::size_t ViewSize(NodeId member) const;
  // Entry slots allocated across every view plus the merge buffer: at most
  // view_size per alive member that has a view, plus the buffer's
  // view_size + kGossipExchangeSize + 1.
  std::size_t view_slots() const;
  long exchanges_performed() const { return exchanges_; }
  long dead_contacts() const { return dead_contacts_; }
  // Incoming records already past the TTL when they arrived; rejecting them
  // keeps stale views from circulating as an epidemic. Exchanges are
  // synchronous and every shipped slice is pruned first, so this stays 0.
  long stale_rejections() const { return stale_rejections_; }

 private:
  struct View {
    // Reserved at view_size by the first merge, freed on departure.
    std::vector<Entry> entries;
    // Lower bound on every entry's heard_at (infinity while empty). Inserts
    // lower it; only Prune's scan raises it. Raising an entry's heard_at or
    // removing an entry leaves it a valid bound.
    double oldest = std::numeric_limits<double>::infinity();
    bool active = false;
    sim::EventId timer = sim::kInvalidEventId;
  };

  // The view of `member` (ids are dense), created empty on first use.
  View& ViewFor(NodeId member);
  // The view of `member`, or nullptr when it has none.
  const View* FindView(NodeId member) const;
  void Activate(NodeId member);
  void Deactivate(NodeId member);
  void Tick(NodeId member);
  // Merges `incoming` into `member`'s view: freshest record per id wins,
  // oldest entries are dropped beyond view_size, self-records are ignored.
  void Merge(NodeId member, std::span<const Entry> incoming);
  // Records that `id` sits at view position `pos` in the current Merge.
  void IndexEntry(NodeId id, std::uint32_t pos);
  // Fills `slice` with a random slice of `member`'s view and the member's
  // own fresh record.
  void SampleSlice(NodeId member, std::vector<Entry>& slice);
  void Prune(View& view, double now);

  Session& session_;
  GossipParams params_;
  rnd::Rng rng_;
  // Indexed by NodeId. A deque, because growing it keeps references valid:
  // Tick holds its member's view across calls that may append another
  // member's.
  std::deque<View> views_;
  // Merge builds a view here (up to view_size + kGossipExchangeSize + 1
  // entries) and copies the view_size survivors back.
  std::vector<Entry> merge_buffer_;
  // The slices a push-pull exchange ships each way.
  std::vector<Entry> push_slice_;
  std::vector<Entry> pull_slice_;
  // Merge's id -> view-position index, indexed by NodeId. A slot is valid
  // only while its stamp equals merge_epoch_, so each Merge rebuilds the
  // index in O(view) without clearing it.
  std::vector<std::uint32_t> index_stamp_;
  std::vector<std::uint32_t> index_pos_;
  std::uint32_t merge_epoch_ = 0;
  long exchanges_ = 0;
  long dead_contacts_ = 0;
  long stale_rejections_ = 0;
};

}  // namespace omcast::overlay
