// Shared parent-selection helpers used by the distributed protocols
// (minimum-depth, longest-first, ROST's join path).
#pragma once

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

// Rooted members of the current tree grouped by layer (layers[0] == {root}),
// in BFS order. No protocol calls it: the relaxed bandwidth/time-ordered
// algorithms scan the tree's preorder thread instead (Tree::PreorderNext),
// whose order their RNG draws depend on.
std::vector<std::vector<overlay::NodeId>> LayersByBfs(const overlay::Tree& tree);

}  // namespace omcast::proto
