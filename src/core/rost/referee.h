// Reference-node (referee) mechanism of paper Section 3.4.
//
// ROST's switching decisions trust two claims a member makes about itself:
// its outbound bandwidth and its age. A cheater can inflate either to climb
// toward the root (and then, maliciously, depart and disrupt most of the
// tree). The referee mechanism makes both claims third-party attested:
//
//   * when a member first joins, its *parent* (never the member itself, to
//     prevent collusion) records the observed join time on r_age > 1 random
//     members (age referees) and has a measurer set gauge the member's real
//     outgoing bandwidth, storing the result on r_bw > 1 bandwidth referees;
//   * anyone can later verify the member's BTP by consulting the referees;
//   * dead referees are replaced, the replacement synchronizing from a
//     surviving referee. Only if *all* referees of a kind die before repair
//     is the attested value lost: age restarts from the re-enrollment
//     instant and bandwidth is re-measured (an honest value again).
//
// r_age and r_bw are > 1 purely for this fault tolerance.
#pragma once

#include <vector>

#include "overlay/session.h"

namespace omcast::core {

inline constexpr int kAgeReferees = 2;  // r_age
inline constexpr int kBwReferees = 2;   // r_bw
static_assert(kAgeReferees > 1, "r_age must exceed 1 (Section 3.4)");
static_assert(kBwReferees > 1, "r_bw must exceed 1 (Section 3.4)");

class RefereeService {
 public:
  // Parent-side enrollment when `node` first attaches: picks referees and
  // records the ground-truth join time and measured bandwidth.
  void Enroll(overlay::Session& session, overlay::NodeId node);

  bool IsEnrolled(overlay::NodeId node) const;

  // Referee-attested age of `node` at `now`. Repairs dead referees as a
  // side effect (the paper's replace-and-synchronize maintenance, performed
  // lazily at verification time).
  double VerifiedAge(overlay::Session& session, overlay::NodeId node,
                     sim::Time now);

  // Referee-attested outbound bandwidth of `node`.
  double VerifiedBandwidth(overlay::Session& session, overlay::NodeId node);

  // Maintenance statistics (for tests and the ablation bench).
  long referee_replacements() const { return replacements_; }
  long attestation_resets() const { return resets_; }

 private:
  struct Record {
    bool enrolled = false;
    std::vector<overlay::NodeId> age_referees;
    std::vector<overlay::NodeId> bw_referees;
    // Values as held by the (surviving) referees.
    double attested_join_time = 0.0;
    double attested_bandwidth = 0.0;
  };

  Record& RecordFor(overlay::NodeId node);
  // Replaces dead referees in `referees`; returns false if all were dead
  // (attested state lost).
  bool Repair(overlay::Session& session, std::vector<overlay::NodeId>& referees,
              int target_count);
  std::vector<overlay::NodeId> PickReferees(overlay::Session& session,
                                            overlay::NodeId exclude, int count);

  std::vector<Record> records_;
  long replacements_ = 0;
  long resets_ = 0;
};

}  // namespace omcast::core
