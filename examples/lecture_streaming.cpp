// Distance-lecture streaming: the error-recovery data path up close.
//
// A small classroom overlay streams a 90-minute lecture. The example drives
// the CER machinery explicitly for one failure: it shows the partial tree a
// member reconstructs from gossip, the MLC recovery group Algorithm 1
// derives from it (with its total loss correlation vs a random pick), the
// striped repair chain with per-stripe rates, and the ELN classification a
// downstream member performs to decide between "wait for upstream repair"
// and "my parent is gone, rejoin".
//
//   ./examples/lecture_streaming [--students=300] [--seed=11]
#include <iostream>

#include "core/cer/eln.h"
#include "core/cer/group.h"
#include "core/cer/mlc.h"
#include "core/cer/partial_tree.h"
#include "core/cer/recovery.h"
#include "net/topology.h"
#include "proto/min_depth.h"
#include "rand/rng.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace omcast;
  util::FlagSet flags;
  flags.Define("students", "300", "class size")
      .Define("seed", "11", "random seed");
  if (!flags.Parse(argc, argv)) return 1;
  const int students = flags.GetInt("students");
  const auto seed = flags.GetU64("seed");

  rnd::Rng topo_rng(42);
  const net::Topology topology =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);
  sim::Simulator sim;
  overlay::Session session(sim, topology,
                           std::make_unique<proto::MinDepthProtocol>(),
                           overlay::SessionParams{}, seed);
  session.Prepopulate(students);
  sim.RunUntil(300.0);
  std::cout << "lecture overlay: " << session.alive_count()
            << " students, tree depth " << session.tree().Depth() << "\n\n";

  // Pick a member with an upstream worth losing: some node whose parent is
  // an internal node below the root.
  overlay::NodeId victim = overlay::kNoNode;
  for (overlay::NodeId id : session.alive_members()) {
    if (session.tree().Layer(id) >= 3 && session.tree().IsRooted(id)) {
      victim = id;
      break;
    }
  }
  if (victim == overlay::kNoNode) victim = session.alive_members().front();

  // 1. Partial tree from the victim's gossip view.
  const auto known = session.SampleCandidates(100, victim);
  const core::PartialTree view = core::PartialTree::Build(session.tree(), known);
  std::cout << "partial tree from gossip: " << view.nodes().size()
            << " members spliced from " << known.size() << " records, "
            << view.Levels().size() << " levels\n";

  // 2. MLC group vs a random pick.
  const auto group =
      core::SelectRecoveryGroup(session, victim, 4, core::GroupSelection::kMlc);
  auto random_group = session.rng().SampleWithoutReplacement(
      session.alive_members(), group.size());
  std::cout << "MLC recovery group loss correlation: "
            << core::TotalLossCorrelation(session.tree(), group)
            << "  (random pick: "
            << core::TotalLossCorrelation(session.tree(), random_group)
            << ")\n\n";

  // 3. The striped repair chain for a parent failure.
  core::OutageSpec spec;
  rnd::Rng residuals(seed ^ 0xABC);
  util::Table chain({"recovery node", "distance(ms)", "residual(pkt/s)",
                     "stripe"});
  double covered = 0.0;
  for (const overlay::NodeId g : group) {
    core::RecoverySource src;
    src.usable = true;
    src.rate_fraction = residuals.Uniform(0.0, 9.0) / 10.0;
    src.hop_latency_s = session.DelayMs(victim, g) / 1000.0;
    const double from = std::min(covered, 1.0);
    covered += src.rate_fraction;
    const double to = std::min(covered, 1.0);
    chain.AddRow({std::to_string(g),
                  util::FormatDouble(session.DelayMs(victim, g), 1),
                  util::FormatDouble(src.rate_fraction * 10.0, 1),
                  "(n mod 100) in [" + util::FormatDouble(100.0 * from, 0) +
                      ", " + util::FormatDouble(100.0 * to, 0) + ")"});
    spec.chain.push_back(src);
    if (covered >= 1.0) break;
  }
  chain.Print(std::cout, "striped full-rate repair request chain");

  const core::OutageResult outage = core::SimulateOutage(spec);
  std::cout << "\noutage of " << outage.packets_total
            << " packets: " << outage.packets_recovered
            << " repaired in time, " << outage.packets_lost << " lost -> "
            << util::FormatDouble(outage.starving_s, 1)
            << "s playback stall (aggregate repair rate "
            << util::FormatDouble(outage.aggregate_rate, 2) << ")\n\n";

  // 4. ELN classification downstream.
  core::ElnTracker tracker;
  for (int seq = 0; seq < 5; ++seq) tracker.OnData(seq);
  for (int seq = 5; seq < 9; ++seq) tracker.OnEln(seq);  // parent: "lost too"
  std::cout << "downstream member sees data 0-4 then ELN 5-8: status = "
            << (tracker.status() == core::ElnTracker::Status::kUpstreamLoss
                    ? "upstream loss (wait for repair, do NOT rejoin)"
                    : "unexpected")
            << "\n";
  core::ElnTracker silent;
  silent.OnData(0);
  silent.OnData(9);  // 8-packet hole, no ELN: the parent went dark
  std::cout << "another member sees data 0 then 9 with no ELN:  status = "
            << (silent.status() == core::ElnTracker::Status::kParentFailure
                    ? "parent failure (launch rejoin)"
                    : "unexpected")
            << "\n";
  return 0;
}
