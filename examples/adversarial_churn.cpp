// Adversarial members vs the referee mechanism (paper Section 3.4).
//
// A squad of malicious free-riders claims enormous bandwidth and age to
// climb toward the source, then departs simultaneously to take the stream
// down with them. The example runs the attack twice -- with ROST's BTP
// switching trusting member claims, and with referee-attested values --
// and reports how high the cheaters got and how much damage their
// coordinated exit caused.
//
//   ./examples/adversarial_churn [--members=800] [--cheaters=12] [--seed=3]
#include <iostream>

#include "core/rost/rost.h"
#include "net/topology.h"
#include "rand/rng.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace omcast;

struct AttackOutcome {
  double avg_cheater_layer = 0.0;
  int best_layer = 99;
  long victims = 0;  // disruptions caused by the coordinated exit
  long switches = 0;
  long infeasible = 0;
};

AttackOutcome RunAttack(const net::Topology& topology, bool use_referees,
                        int members, int cheaters, std::uint64_t seed) {
  sim::Simulator sim;
  core::RostParams params;
  params.switching_interval_s = 120.0;  // aggressive adjustment cadence
  params.use_referees = use_referees;
  auto protocol = std::make_unique<core::RostProtocol>(params);
  core::RostProtocol* rost = protocol.get();
  overlay::Session session(sim, topology, std::move(protocol),
                           overlay::SessionParams{}, seed);
  session.Prepopulate(members);
  session.StartArrivals(members / rnd::kMeanLifetimeSeconds);
  sim.RunUntil(600.0);

  // The attackers join as ordinary members with modest real bandwidth, then
  // lie about both BTP inputs. Out-degree is self-policed, so a malicious
  // node also *accepts* far more children than its uplink can actually
  // serve (they would starve; here the structural damage is what matters).
  std::vector<overlay::NodeId> squad;
  for (int i = 0; i < cheaters; ++i) {
    const overlay::NodeId id = session.InjectMember(2.0, 1e9);
    overlay::Member& m = session.tree().Get(id);
    m.reported_bandwidth = 100.0;
    m.reported_age_bonus = 1e7;
    session.tree().SetCapacity(id, 100);
    squad.push_back(id);
  }
  // Give them two hours of switching opportunities.
  sim.RunUntil(7800.0);

  AttackOutcome out;
  double layer_sum = 0.0;
  for (const overlay::NodeId id : squad) {
    const int layer = session.tree().Layer(id);
    layer_sum += layer;
    out.best_layer = std::min(out.best_layer, layer);
  }
  out.avg_cheater_layer = layer_sum / static_cast<double>(squad.size());
  out.switches = rost->switches_performed();
  out.infeasible = rost->infeasible_switches();

  // Coordinated exit: count the members disrupted by it.
  long disruptions = 0;
  session.hooks().AddOnDisruption(
      [&disruptions](overlay::NodeId, overlay::NodeId) { ++disruptions; });
  for (const overlay::NodeId id : squad) session.DepartNow(id);
  out.victims = disruptions;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags;
  flags.Define("members", "800", "overlay size")
      .Define("cheaters", "12", "size of the malicious squad")
      .Define("seed", "3", "random seed");
  if (!flags.Parse(argc, argv)) return 1;
  const int members = flags.GetInt("members");
  const int cheaters = flags.GetInt("cheaters");
  const auto seed = flags.GetU64("seed");

  rnd::Rng topo_rng(42);
  const net::Topology topology =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);

  std::cout << "adversarial churn: " << cheaters << " cheaters (real bw 2.0, "
            << "claimed bw 100 + inflated age) infiltrate " << members
            << " members,\nclimb for ~2 hours, then all depart at once.\n\n";

  const AttackOutcome trusting =
      RunAttack(topology, /*use_referees=*/false, members, cheaters, seed);
  const AttackOutcome attested =
      RunAttack(topology, /*use_referees=*/true, members, cheaters, seed);

  util::Table table({"scheme", "avg cheater layer", "best layer",
                     "victims of exit", "switches"});
  table.AddRow({"claims trusted", util::FormatDouble(trusting.avg_cheater_layer, 1),
                std::to_string(trusting.best_layer),
                std::to_string(trusting.victims),
                std::to_string(trusting.switches)});
  table.AddRow({"referee-attested",
                util::FormatDouble(attested.avg_cheater_layer, 1),
                std::to_string(attested.best_layer),
                std::to_string(attested.victims),
                std::to_string(attested.switches)});
  table.Print(std::cout);

  std::cout << "\nWith referees (Section 3.4), switching uses third-party-"
               "attested bandwidth and\nage, so inflated claims no longer "
               "move attackers up the tree; the residual\ndamage comes from "
               "their over-accepting slots attracting joiners, which the\n"
               "paper's referee design would curb the same way (joiners "
               "consult the\nbandwidth referees before attaching).\n";
  return 0;
}
