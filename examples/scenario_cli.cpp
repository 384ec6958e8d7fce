// Ad-hoc scenario driver: run any algorithm / topology / workload
// combination from the command line and get a one-line (or CSV) summary.
//
//   ./examples/scenario_cli --algorithm=rost --population=2000
//   ./examples/scenario_cli --algorithm=relaxed-bo --stream=1 --format=csv
//
// Useful for parameter exploration beyond the fixed figure benches.
#include <iostream>
#include <memory>

#include "exp/scenario.h"
#include "metrics/collectors.h"
#include "net/topology.h"
#include "overlay/gossip.h"
#include "sim/simulator.h"
#include "stream/streaming.h"
#include "util/flags.h"

namespace {

using namespace omcast;

exp::Algorithm ParseAlgorithm(const std::string& name) {
  if (name == "min-depth") return exp::Algorithm::kMinDepth;
  if (name == "longest-first") return exp::Algorithm::kLongestFirst;
  if (name == "relaxed-bo") return exp::Algorithm::kRelaxedBo;
  if (name == "relaxed-to") return exp::Algorithm::kRelaxedTo;
  if (name == "rost") return exp::Algorithm::kRost;
  std::cerr << "unknown algorithm '" << name
            << "' (min-depth|longest-first|relaxed-bo|relaxed-to|rost)\n";
  std::exit(1);
}

net::TopologyParams ParseTopology(const std::string& name) {
  if (name == "paper") return net::PaperTopologyParams();
  if (name == "small") return net::SmallTopologyParams();
  if (name == "tiny") return net::TinyTopologyParams();
  std::cerr << "unknown topology '" << name << "' (paper|small|tiny)\n";
  std::exit(1);
}

// Whether choice flag `name` holds `second` rather than `first`; any other
// value exits naming the flag.
bool IsSecondChoice(const util::FlagSet& flags, const std::string& name,
                    const std::string& first, const std::string& second) {
  const std::string value = flags.GetString(name);
  if (value != first && value != second) {
    std::cerr << "unknown --" << name << " '" << value << "' (" << first
              << '|' << second << ")\n";
    std::exit(1);
  }
  return value == second;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags;
  flags.Define("algorithm", "rost", "min-depth|longest-first|relaxed-bo|relaxed-to|rost")
      .Define("topology", "paper", "paper|small|tiny")
      .Define("population", "2000", "steady-state size M")
      .Define("warmup", "5400", "warm-up seconds")
      .Define("measure", "3600", "measurement seconds")
      .Define("seed", "1", "RNG seed")
      .Define("rost-interval", "360", "ROST switching interval (s)")
      .Define("rost-referees", "0", "verify BTP claims via referees")
      .Define("gossip", "0", "use the real gossip membership service")
      .Define("stream", "0", "attach the streaming layer (starving ratio)")
      .Define("group", "3", "recovery group size (with --stream)")
      .Define("selection", "mlc", "mlc|random (with --stream)")
      .Define("mode", "coop", "coop|single (with --stream)")
      .Define("buffer", "5", "playback buffer seconds (with --stream)")
      .Define("format", "table", "table|csv");
  if (!flags.Parse(argc, argv)) return 1;

  const exp::Algorithm algorithm = ParseAlgorithm(flags.GetString("algorithm"));
  const bool random_selection =
      IsSecondChoice(flags, "selection", "mlc", "random");
  const bool single_source = IsSecondChoice(flags, "mode", "coop", "single");
  const bool csv = IsSecondChoice(flags, "format", "table", "csv");
  rnd::Rng topo_rng(flags.GetU64("seed") ^ 0x70706fULL);
  const net::Topology topology =
      net::Topology::Generate(ParseTopology(flags.GetString("topology")), topo_rng);

  core::RostParams rost;
  rost.switching_interval_s = flags.GetDouble("rost-interval");
  rost.use_referees = flags.GetBool("rost-referees");

  sim::Simulator sim;
  overlay::Session session(sim, topology, exp::MakeProtocol(algorithm, rost),
                           overlay::SessionParams{}, flags.GetU64("seed"));
  std::unique_ptr<overlay::GossipService> gossip;
  if (flags.GetBool("gossip")) {
    gossip = std::make_unique<overlay::GossipService>(
        session, overlay::GossipParams{}, 0x905517);
    session.SetMembershipOracle(gossip.get());
  }
  std::unique_ptr<stream::StreamingLayer> streaming;
  if (flags.GetBool("stream")) {
    stream::StreamParams sp;
    sp.recovery_group_size = flags.GetInt("group");
    sp.buffer_s = flags.GetDouble("buffer");
    sp.selection = random_selection ? core::GroupSelection::kRandom
                                    : core::GroupSelection::kMlc;
    sp.mode = single_source ? core::RecoveryMode::kSingleSource
                            : core::RecoveryMode::kCooperative;
    streaming = std::make_unique<stream::StreamingLayer>(session, sp, 0x57BEA);
  }

  metrics::MemberOutcomes outcomes(session);
  metrics::TreeSnapshots snapshots(session, 300.0);
  const double warmup = flags.GetDouble("warmup");
  const double end = warmup + flags.GetDouble("measure");
  outcomes.SetWindow(warmup, end);
  snapshots.Start(warmup, end);
  if (streaming) streaming->SetMeasurementWindow(warmup, end);

  const int population = flags.GetInt("population");
  session.Prepopulate(population);
  session.StartArrivals(population / rnd::kMeanLifetimeSeconds);
  sim.RunUntil(end);
  outcomes.HarvestAliveMembers();

  const double starving =
      streaming ? 100.0 * streaming->ratio_stat().mean() : 0.0;
  if (csv) {
    std::cout << "algorithm,population,disruptions,reconnections,delay_ms,"
                 "stretch,depth,starving_pct\n"
              << flags.GetString("algorithm") << ',' << population << ','
              << outcomes.disruptions().mean() << ','
              << outcomes.reconnections().mean() << ','
              << snapshots.delay_ms().mean() << ','
              << snapshots.stretch().mean() << ','
              << snapshots.depth().mean() << ',' << starving << '\n';
  } else {
    std::cout << flags.GetString("algorithm") << " @ " << population
              << " members (" << flags.GetString("topology") << " topology)\n"
              << "  disruptions/node:  " << outcomes.disruptions().mean()
              << "\n  reconnects/node:   " << outcomes.reconnections().mean()
              << "\n  service delay:     " << snapshots.delay_ms().mean()
              << " ms\n  stretch:           " << snapshots.stretch().mean()
              << "\n  tree depth:        " << snapshots.depth().mean() << "\n";
    if (streaming)
      std::cout << "  starving ratio:    " << starving << " % (group "
                << flags.GetInt("group") << ", "
                << flags.GetString("selection") << ", "
                << flags.GetString("mode") << ")\n";
  }
  return 0;
}
