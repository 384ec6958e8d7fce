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

}  // namespace omcast::proto
