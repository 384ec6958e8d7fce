// Clustered overlay multicast (CliqueStream-style, arXiv:0903.4365) -- the
// competitor design the ROST/CER bake-off scores against the paper's
// switching tree.
//
// The overlay is two-tiered:
//
//   * a BACKBONE tree whose interior is the source plus one DELEGATE per
//     cluster -- stable, high-outdegree members elected within each
//     cluster;
//   * CLUSTERS (cliques) of up to max_cluster_size members hanging under
//     their delegate: every non-delegate member attaches only under
//     same-cluster parents, so each cluster is a contiguous subtree rooted
//     at its delegate.
//
// Failure recovery is CLUSTER-LOCALIZED, which is the design's whole bet:
//
//   * a LEAF (non-delegate) death orphans only same-cluster subtrees, and
//     the orphans reattach under other cluster members -- zero backbone
//     control traffic (the recovery-locality invariant,
//     tests/test_clique.cc pins it);
//   * a DELEGATE death promotes a successor from within the clique (the
//     highest-outdegree orphaned fragment root); only the successor touches
//     the backbone when it claims the dead delegate's position. If the
//     successor cannot root itself within promotion_timeout_s the cluster
//     dissolves and its members re-disperse through the fresh-join path.
//
// A periodic election round keeps delegates stable-and-strong: a direct
// child whose outdegree beats the incumbent's by stability_margin swaps
// positions with it (an atomic parent-child swap in the style of ROST's
// PerformSwitch, but announcement-based -- no lock-lease handshake, which
// is exactly the CliqueStream argument: localized recovery needs no
// distributed locking). Undersized clusters dissolve administratively at
// election time when another cluster has room, so the clique mix
// consolidates lazily instead of fragmenting forever.
//
// The protocol plugs into every existing seam through the protocol-agnostic
// overlay::Protocol hooks: SetFaultPlane routes its announcement traffic
// over the lossy chaos plane, ExportCounters publishes the "clique.*"
// message-cost tallies, and WedgedLeases is trivially zero (no locks).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "overlay/session.h"
#include "sim/fault_plane.h"

namespace omcast::obs {
class Registry;
}  // namespace omcast::obs

namespace omcast::proto {

struct CliqueParams {
  // Cluster population bounds: a cluster admits new members while below
  // max_cluster_size; one below min_cluster_size dissolves at election time
  // (when another active cluster has room to eventually absorb its
  // members).
  int max_cluster_size = 12;
  int min_cluster_size = 2;
  // Period of the per-cluster election/maintenance round.
  double election_period_s = 60.0;
  // How long a promoted successor may stay unrooted before its cluster
  // gives up on succession and dissolves.
  double promotion_timeout_s = 30.0;
  // A challenger replaces a live delegate only when its outdegree exceeds
  // the incumbent's by at least this margin (hysteresis against seat
  // thrashing between near-equal members).
  double stability_margin = 1.0;
};

// Aborts unless the parameter combination is self-consistent (cluster size
// bounds ordered, positive periods/timeouts). Called by the constructor;
// exposed for tests.
void ValidateCliqueParams(const CliqueParams& params);

class CliqueProtocol final : public overlay::Protocol {
 public:
  explicit CliqueProtocol(CliqueParams params = {});

  std::string name() const override { return "clique"; }
  bool TryAttach(overlay::Session& session, overlay::NodeId id) override;
  void OnDeparture(overlay::Session& session, overlay::NodeId id) override;

  // Routes delegate announcements (backbone claims, promotion notices,
  // election keepalives) over real lossy messages; the announcements are
  // advisory -- no handshake -- so loss costs visibility, never liveness.
  void SetFaultPlane(sim::FaultPlane* fault_plane) override {
    fault_plane_ = fault_plane;
  }

  // "clique.*" message-cost counters (the bake-off's control-overhead
  // column next to ROST's lock traffic).
  void ExportCounters(obs::Registry& reg) const override;

  const CliqueParams& params() const { return params_; }

  // --- statistics for tests and the bake-off ------------------------------
  long clusters_formed() const { return clusters_formed_; }
  long clusters_dissolved() const { return clusters_dissolved_; }
  long elections_run() const { return elections_; }
  long delegates_promoted() const { return promotions_; }
  long local_recoveries() const { return local_recoveries_; }
  long backbone_reattaches() const { return backbone_reattaches_; }
  // Control messages that touched the backbone tier vs ones confined to a
  // cluster -- the recovery-locality invariant is "a leaf failure moves
  // backbone_messages() by zero".
  long backbone_messages() const { return backbone_messages_; }
  long local_messages() const { return local_messages_; }
  // Last-resort placements that ignored the cluster-size/backbone structure
  // (degraded mode under capacity scarcity; should be rare in steady state).
  long overflow_attaches() const { return overflow_attaches_; }
  int active_clusters() const;

  // Cluster id of `id`, -1 when clusterless (for tests).
  int ClusterOf(overlay::NodeId id) const;
  // Delegate seat of cluster `cluster`; kNoNode while succession runs.
  overlay::NodeId DelegateOf(int cluster) const;

 private:
  struct Cluster {
    overlay::NodeId delegate = overlay::kNoNode;
    std::vector<overlay::NodeId> members;  // includes the delegate
    bool active = false;
    // Bumps on every succession/dissolution so a stale promotion-timeout
    // event cannot act on a reused cluster slot.
    int succession_epoch = 0;
    // One pending promotion/claim timeout at a time: armed when the seat is
    // off the backbone (succession or a refused claim), cleared when the
    // claim lands or the cluster dissolves.
    bool claim_timer_armed = false;
  };

  void EnsureSize(overlay::Session& session);
  void EnsureElectionTimer(overlay::Session& session);
  void ScheduleElection(overlay::Session& session);

  bool IsBackboneCandidate(overlay::NodeId id) const;
  // Fire-and-forget advisory over the fault plane (no-op without one).
  void SendAdvisory(overlay::Session& session, overlay::NodeId from,
                    overlay::NodeId to);

  // --- attach paths (one per joiner situation) ----------------------------
  // `id` is the delegate of an active cluster: claim a backbone position
  // under the root or another delegate.
  bool AttachToBackbone(overlay::Session& session, overlay::NodeId id);
  // `id` belongs to a cluster with a live seat: reattach under a rooted
  // same-cluster parent (the localized recovery path).
  bool AttachWithinCluster(overlay::Session& session, overlay::NodeId id);
  // `id` is clusterless: join an existing cluster with room; else found a
  // new one; else overflow into any cluster with spare capacity (the size
  // cap is admission *preference*, not a correctness bound -- with a scarce
  // backbone the alternative is stranding the member entirely).
  bool TryFreshAttach(overlay::Session& session, overlay::NodeId id);
  // Founds a new cluster with `id` as delegate (backbone-attaches it
  // first; no cluster is created when the backbone refuses).
  bool FormCluster(overlay::Session& session, overlay::NodeId id);
  // Capacity-saturated tree: the preempt join (proto::PreemptJoin, the
  // move ROST makes) with delegate seats pinned, announced cluster-locally.
  // Every splice strictly grows rooted fan-out, so the post-flash-crowd
  // orphan backlog drains instead of deadlocking on a full tree.
  bool PreemptAttach(overlay::Session& session,
                     const std::vector<overlay::NodeId>& pool,
                     overlay::NodeId id);

  // --- seat maintenance ---------------------------------------------------
  // Fills a dead delegate's seat from the clique's orphaned fragment roots
  // and arms the promotion timeout.
  void ElectSuccessor(overlay::Session& session, int cluster);
  // Periodic election/maintenance round over every active cluster.
  void RunElection(overlay::Session& session);
  // Stability promotion: `challenger` (a direct child of the incumbent)
  // swaps tree positions with it and takes the seat.
  void PromoteDelegate(overlay::Session& session, int cluster,
                       overlay::NodeId challenger);
  // Disbands the cluster: members go clusterless (structure untouched --
  // detached ones re-enter through the fresh path as they retry).
  void DissolveCluster(overlay::Session& session, int cluster);
  void ArmSuccessionTimeout(overlay::Session& session, int cluster);

  void LeaveCluster(overlay::NodeId id);
  int AllocateCluster();

  CliqueParams params_;
  sim::FaultPlane* fault_plane_ = nullptr;
  std::vector<Cluster> clusters_;
  std::vector<int> free_clusters_;
  std::vector<int> cluster_of_;  // NodeId -> cluster id, -1 none
  bool election_timer_started_ = false;

  long clusters_formed_ = 0;
  long clusters_dissolved_ = 0;
  long elections_ = 0;
  long promotions_ = 0;
  long local_recoveries_ = 0;
  long backbone_reattaches_ = 0;
  long backbone_messages_ = 0;
  long local_messages_ = 0;
  long overflow_attaches_ = 0;
};

}  // namespace omcast::proto
