// Resilience sweep: ROST + CER streaming under an increasingly hostile
// control plane.
//
// Each run routes every control message (heartbeats, lock leases, ELNs)
// through a seeded FaultPlane at the given loss rate, with duplication and
// jitter on top, and injects a correlated stub-domain kill plus a
// mid-repair server death during the stream. The table reports how the
// hardened protocol degrades: starving time, detection latency, false
// suspicions, lock timeouts, stripe failovers -- and the two invariants
// that must NOT degrade (wedged locks, permanently unrooted members).
//
//   ./examples/chaos_sweep [--members=300] [--seed=7] [--quick=true]
//                          [--trace-out=FILE]
//
// --quick shrinks the run for CI smoke tests (sanitizer builds run it).
// --trace-out=FILE records the first (loss = 0) run's protocol event
// stream and writes it as JSONL to FILE plus a Chrome/Perfetto trace to
// FILE.chrome.json (load the latter at https://ui.perfetto.dev).
// Exit code is nonzero if any run wedges a lock or strands an orphan, so
// the binary doubles as an end-to-end chaos check.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "exp/chaos.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace omcast;

exp::ChaosConfig BaseConfig(int members, std::uint64_t seed, bool quick) {
  exp::ChaosConfig c;
  c.population = members;
  c.warmup_s = quick ? 120.0 : 600.0;
  c.stream_s = quick ? 30.0 : 120.0;
  c.drain_s = quick ? 45.0 : 120.0;
  c.seed = seed;
  c.fault.dup_prob = 0.01;
  c.fault.jitter_s = 0.05;
  // A root that can absorb the whole population hides every failure; cap it
  // so the tree has depth and failures orphan someone.
  c.session.root_bandwidth = 20.0;
  c.rost.switching_interval_s = 120.0;
  c.domain_kill_at_s = 5.0;
  c.domain_kill_index = 1;
  c.mid_repair_kill_at_s = 15.0;
  if (quick) c.packet.packet_rate = 5.0;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags;
  flags.Define("members", "300", "steady-state session size")
      .Define("seed", "7", "base RNG seed")
      .Define("quick", "false", "shrink runs for CI smoke testing")
      .Define("trace-out", "",
              "write the loss=0 run's protocol trace as JSONL to FILE "
              "(+ FILE.chrome.json for Perfetto)");
  if (!flags.Parse(argc, argv)) return 2;
  const std::string trace_out = flags.GetString("trace-out");
  const bool quick = flags.GetBool("quick");
  const int members = quick ? 80 : flags.GetInt("members");
  const auto seed = flags.GetU64("seed");

  rnd::Rng topo_rng(1);
  const net::Topology topology = net::Topology::Generate(
      quick ? net::TinyTopologyParams() : net::SmallTopologyParams(),
      topo_rng);

  util::Table table({"loss", "starving", "detect_s", "false_susp",
                     "lock_tmo", "failovers", "wedged", "unrooted"});
  bool healthy = true;
  for (const double loss : {0.0, 0.01, 0.05}) {
    exp::ChaosConfig c = BaseConfig(members, seed, quick);
    c.fault.loss_rate = loss;
    // Trace the clean run: 2^20 events comfortably covers a quick run, and
    // the ring drops oldest-first if a long run overflows it.
    obs::Tracer tracer(1u << 20);
    if (!trace_out.empty() && loss == 0.0) c.tracer = &tracer;
    const exp::ChaosResult r = exp::RunChaosScenario(topology, c);
    if (c.tracer != nullptr) {
      std::ofstream jsonl(trace_out);
      jsonl << tracer.ToJsonl();
      std::ofstream chrome(trace_out + ".chrome.json");
      chrome << tracer.ToChromeTrace();
      if (!jsonl || !chrome) {
        std::cerr << "FAIL: could not write trace to " << trace_out << "\n";
        return 2;
      }
      std::cerr << "wrote " << tracer.size() << " trace events ("
                << tracer.dropped() << " dropped) to " << trace_out << "\n";
    }
    // Every run is ROST with heartbeats and a stream, so each of these
    // "chaos.*" counters is in the registry snapshot.
    const auto chaos = [&r](const std::string& name, int precision) {
      return util::FormatDouble(r.registry.at("chaos." + name), precision);
    };
    table.AddRow({util::FormatDouble(loss, 2),
                  util::FormatDouble(r.avg_starving_ratio, 4),
                  chaos("mean_detection_latency_s", 2),
                  chaos("false_suspicions", 0), chaos("lock_timeouts", 0),
                  chaos("stripe_failovers", 0), chaos("wedged_leases", 0),
                  std::to_string(r.unrooted_members)});
    if (!r.zero_wedged_locks || r.unrooted_members > 0) healthy = false;
    if (loss == 0.05) {
      std::cout << "\nworst case (5% loss) counter detail:\n";
      for (const auto& [name, value] : r.registry)
        if (name.starts_with("chaos."))
          std::cout << "  " << name << " "
                    << util::FormatDouble(value, value == std::floor(value)
                                                     ? 0
                                                     : 3)
                    << "\n";
      std::cout << "\n";
    }
  }
  table.Print(std::cout, "ROST+CER under control-plane chaos (domain kill + "
                         "mid-repair server death)");
  if (!healthy) {
    std::cerr << "FAIL: a run wedged a lock or stranded an orphan\n";
    return 1;
  }
  return 0;
}
