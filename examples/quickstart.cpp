// Quickstart: build a GT-ITM topology, run a churned multicast session under
// ROST, and print reliability/quality metrics next to the minimum-depth
// baseline.
//
//   ./examples/quickstart [--population=600] [--seed=1]
#include <iostream>

#include "exp/scenario.h"
#include "net/topology.h"
#include "rand/rng.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace omcast;

  util::FlagSet flags;
  flags.Define("population", "600", "steady-state members")
      .Define("seed", "1", "random seed");
  if (!flags.Parse(argc, argv)) return 1;

  // 1. An underlying network: transit-stub, ~2300 end hosts.
  rnd::Rng topo_rng(42);
  const net::Topology topology =
      net::Topology::Generate(net::SmallTopologyParams(), topo_rng);
  std::cout << "topology: " << topology.num_stub_nodes() << " stub hosts, "
            << topology.num_transit_nodes() << " transit nodes\n";

  // 2. A churn scenario: lognormal lifetimes, Pareto bandwidths, Poisson
  //    arrivals sized for the target steady-state population.
  exp::ScenarioConfig config;
  config.population = flags.GetInt("population");
  config.seed = flags.GetU64("seed");
  config.warmup_s = 1200.0;
  config.measure_s = 2400.0;

  // 3. Run ROST and the min-depth baseline on identical workloads.
  util::Table table({"algorithm", "disruptions/node", "delay(ms)", "stretch",
                     "reconnects/node"});
  for (const exp::Algorithm a :
       {exp::Algorithm::kMinDepth, exp::Algorithm::kRost}) {
    const exp::TreeScenarioResult r = RunTreeScenario(topology, a, config);
    table.AddRow(exp::AlgorithmLabel(a),
                 {r.avg_disruptions, r.avg_delay_ms, r.avg_stretch,
                  r.avg_reconnections});
  }
  table.Print(std::cout, "\nsteady-state comparison (" +
                             std::to_string(config.population) + " members)");
  std::cout << "\nROST moves high bandwidth-time-product members up the "
               "tree, so failures hit\nfewer descendants AND the tree stays "
               "shallower than min-depth's; see DESIGN.md\nand the bench/ "
               "binaries for the full paper reproduction.\n";
  return 0;
}
