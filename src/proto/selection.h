// Shared parent-selection helpers used by the distributed protocols
// (minimum-depth, longest-first, ROST's and the clique protocol's join
// paths).
#pragma once

#include <functional>
#include <vector>

#include "overlay/session.h"

namespace omcast::proto {

// Among `candidates` with spare capacity, picks the one highest in the tree
// (smallest layer); ties broken by smallest network delay to `joining`
// (paper Section 2.1 / 3.3). Returns kNoNode if none has spare capacity.
overlay::NodeId PickMinDepthParent(overlay::Session& session,
                                   const std::vector<overlay::NodeId>& candidates,
                                   overlay::NodeId joining);

// Among `candidates` with spare capacity, picks the oldest (longest-lived);
// ties broken by smallest network delay (paper Section 2.1, longest-first).
overlay::NodeId PickOldestParent(overlay::Session& session,
                                 const std::vector<overlay::NodeId>& candidates,
                                 overlay::NodeId joining);

// Preempt join, the fallback when no rooted candidate has a spare slot:
// `joining` takes the slot of the weakest leaf among `candidates` and
// adopts it. The leaf is never the root or a member `pinned` keeps in
// place, has no children, and reports strictly less bandwidth than
// `joining`; the lowest bandwidth wins, ties to the lowest id. `joining`
// needs a spare slot of its own for the leaf. Nobody else moves, and rooted
// fan-out grows by `joining`'s spare capacity less the slot the leaf
// re-occupies, so repeated preemptions drain the orphan backlog a
// correlated kill leaves behind instead of ping-ponging free-riders.
// Returns the displaced leaf (its reconnection counted), or kNoNode with
// the tree unchanged.
overlay::NodeId PreemptJoin(
    overlay::Tree& tree, const std::vector<overlay::NodeId>& candidates,
    overlay::NodeId joining,
    const std::function<bool(overlay::NodeId)>& pinned = nullptr);

}  // namespace omcast::proto
