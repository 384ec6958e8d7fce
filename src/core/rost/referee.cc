#include "core/rost/referee.h"

#include "util/check.h"

namespace omcast::core {

using overlay::NodeId;
using overlay::Session;

RefereeService::Record& RefereeService::RecordFor(NodeId node) {
  if (records_.size() <= static_cast<std::size_t>(node))
    records_.resize(static_cast<std::size_t>(node) + 1);
  return records_[static_cast<std::size_t>(node)];
}

bool RefereeService::IsEnrolled(NodeId node) const {
  return static_cast<std::size_t>(node) < records_.size() &&
         records_[static_cast<std::size_t>(node)].enrolled;
}

std::vector<NodeId> RefereeService::PickReferees(Session& session,
                                                 NodeId exclude, int count) {
  // Referees are chosen among current members uniformly; the enrolled node
  // itself never serves as its own referee.
  std::vector<NodeId> out;
  const std::vector<NodeId> pool = session.rng().SampleWithoutReplacementFrom(
      session.alive_members(), static_cast<std::size_t>(count) + 1);
  for (NodeId id : pool) {
    if (id == exclude) continue;
    out.push_back(id);
    if (static_cast<int>(out.size()) == count) break;
  }
  return out;  // may be short in tiny overlays; Repair tops it up later
}

void RefereeService::Enroll(Session& session, NodeId node) {
  Record& rec = RecordFor(node);
  util::Check(!rec.enrolled, "member already enrolled");
  const overlay::Member& m = session.tree().Get(node);
  rec.enrolled = true;
  rec.age_referees = PickReferees(session, node, kAgeReferees);
  rec.bw_referees = PickReferees(session, node, kBwReferees);
  // Parent observed the join; measurer set gauges the real outgoing
  // bandwidth. Both are ground truth, not the member's claims.
  rec.attested_join_time = m.join_time;
  rec.attested_bandwidth = m.bandwidth;
}

bool RefereeService::Repair(Session& session, std::vector<NodeId>& referees,
                            int target_count) {
  bool any_alive = false;
  std::vector<NodeId> kept;
  for (NodeId r : referees)
    if (session.tree().Alive(r)) {
      kept.push_back(r);
      any_alive = true;
    }
  if (static_cast<int>(kept.size()) < target_count) {
    for (NodeId fresh : PickReferees(session, overlay::kNoNode,
                                     target_count - static_cast<int>(kept.size()))) {
      kept.push_back(fresh);
      ++replacements_;
    }
  }
  referees = std::move(kept);
  return any_alive;
}

double RefereeService::VerifiedAge(Session& session, NodeId node,
                                   sim::Time now) {
  Record& rec = RecordFor(node);
  util::Check(rec.enrolled, "verification requires enrollment");
  if (!Repair(session, rec.age_referees, kAgeReferees)) {
    // All witnesses lost: the attested age restarts from the re-enrollment
    // instant (the member cannot prove its earlier history).
    rec.attested_join_time = now;
    ++resets_;
  }
  return now - rec.attested_join_time;
}

double RefereeService::VerifiedBandwidth(Session& session, NodeId node) {
  Record& rec = RecordFor(node);
  util::Check(rec.enrolled, "verification requires enrollment");
  if (!Repair(session, rec.bw_referees, kBwReferees)) {
    // All witnesses lost: re-measure (an honest value again).
    rec.attested_bandwidth = session.tree().Get(node).bandwidth;
    ++resets_;
  }
  return rec.attested_bandwidth;
}

}  // namespace omcast::core
