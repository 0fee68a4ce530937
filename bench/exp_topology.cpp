// exp_topology — the graph-parametric engine: speed and reach.
//
// Two claims are measured:
//
//  1. Speed. The incremental enabled-step index picks a uniformly random
//     enabled step in O(log n) with no allocation, where the pre-refactor
//     scheduler rescanned every channel — O(n²) on the complete graph —
//     and allocated the candidate vectors on every step. A faithful
//     reimplementation of the scanning scheduler (LegacyRandomScheduler
//     below) runs the *same* step sequence for the same seed, so the
//     steps/sec ratio isolates the selection cost.
//
//  2. Reach. The protocols only speak local channel indices, so PIF runs
//     unmodified on every built-in topology; one computation per shape is
//     driven to decision.
#include <chrono>

#include "exp_common.hpp"
#include "load/shard.hpp"

namespace snapstab::bench {
namespace {

using sim::EdgeId;
using sim::ProcessId;
using sim::Simulator;
using sim::Step;
using sim::StepKind;
using sim::Topology;

// The seed's RandomScheduler, verbatim: rescan tickable processes and
// non-empty channels each step, filter busy receivers, pick uniformly.
// Identical RNG consumption and candidate order as both the historic code
// and the incremental engine — only the selection cost differs.
class LegacyRandomScheduler final : public sim::Scheduler {
 public:
  explicit LegacyRandomScheduler(std::uint64_t seed) : rng_(seed) {}

  std::optional<Step> next(Simulator& sim) override {
    std::vector<ProcessId> ticks;
    for (ProcessId p = 0; p < sim.process_count(); ++p)
      if (sim.process(p).tick_enabled()) ticks.push_back(p);
    auto chans = sim.network().nonempty_channels();
    std::erase_if(chans, [&](const auto& pr) {
      return sim.process(pr.second).busy();
    });
    const std::size_t total = ticks.size() + chans.size();
    if (total == 0) return std::nullopt;
    const auto pick = rng_.below(total);
    if (pick < ticks.size()) return Step::tick(ticks[pick]);
    const auto [src, dst] = chans[pick - ticks.size()];
    return Step::deliver(src, dst);
  }

 private:
  Rng rng_;
};

// A sustained synthetic workload: every process is always tick-enabled and
// pings a random incident channel, so the candidate sets stay large and
// every step exercises the index.
class PingProcess final : public sim::Process {
 public:
  void on_tick(sim::Context& ctx) override {
    const int d = ctx.degree();
    ctx.send(static_cast<int>(ctx.rng().below(static_cast<std::uint64_t>(d))),
             Message::naive_brd(Value::none()));
  }
  void on_message(sim::Context&, int, const Message&) override {}
  bool tick_enabled() const override { return true; }
  void randomize(Rng&) override {}
};

struct Throughput {
  double steps_per_sec = 0;
  std::uint64_t deliveries = 0;
};

Throughput drive(Topology topo, std::uint64_t seed, std::uint64_t steps,
                 bool legacy) {
  const int n = topo.process_count();
  Simulator world(std::move(topo), /*capacity=*/1, seed);
  for (int p = 0; p < n; ++p)
    world.add_process(std::make_unique<PingProcess>());
  if (legacy)
    world.set_scheduler(std::make_unique<LegacyRandomScheduler>(seed));
  else
    world.set_scheduler(std::make_unique<sim::RandomScheduler>(seed));

  const auto t0 = std::chrono::steady_clock::now();
  world.run(steps);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return {static_cast<double>(world.metrics().steps) / secs,
          world.metrics().deliveries};
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"n", "steps", "seed", "pif-n", "threads", "json"});
  const int n = static_cast<int>(args.get_int("n", 64));
  const auto steps = static_cast<std::uint64_t>(args.get_int("steps", 300'000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 71));
  const int pif_n = static_cast<int>(args.get_int("pif-n", 64));

  banner("T1: exp_topology", "graph-parametric engine (beyond §2's K_n)",
         "Steps/sec of the incremental enabled-step index vs the historic\n"
         "scanning scheduler, and one PIF computation per topology shape.");

  // --- claim 1: selection cost on the complete graph ---
  TextTable speed({"topology", "scheduler", "steps/sec", "deliveries"});
  double incremental_rate = 0;
  double legacy_rate = 0;
  for (const bool legacy : {true, false}) {
    const auto r = drive(sim::Topology::complete(n), seed, steps, legacy);
    if (legacy)
      legacy_rate = r.steps_per_sec;
    else
      incremental_rate = r.steps_per_sec;
    char name[64];
    std::snprintf(name, sizeof name, "complete(%d)", n);
    speed.add_row({name, legacy ? "legacy scan" : "incremental",
                   TextTable::cell(r.steps_per_sec, 0),
                   TextTable::cell(static_cast<double>(r.deliveries), 0)});
  }
  // Same seed ⇒ same executions; deliveries must agree between engines.
  speed.print();
  std::printf("speedup: %.1fx\n\n", incremental_rate / legacy_rate);

  // --- claim 2: PIF to decision on every shape, one trial per worker ---
  TextTable reach({"topology", "n", "edges", "steps", "deliveries", "done"});
  const auto make_shape = [&](int which) {
    switch (which) {
      case 0: return sim::Topology::complete(pif_n);
      case 1: return sim::Topology::ring(pif_n);
      case 2: return sim::Topology::line(pif_n);
      case 3: return sim::Topology::star(pif_n);
      default: return sim::Topology::random_tree(pif_n, seed);
    }
  };
  constexpr int kShapes = 5;
  struct ReachRow {
    std::string name;
    int procs = 0;
    int edges = 0;
    double steps = 0;
    double deliveries = 0;
    bool done = false;
  };
  const auto rows = load::parallel_shards(
      kShapes, trial_thread_count(args, kShapes), [&](int which) {
        sim::Topology topo = make_shape(which);
        ReachRow row;
        row.name = topo.name();
        row.edges = topo.edge_count();
        row.procs = topo.process_count();
        Simulator world(std::move(topo), 1, seed);
        for (int p = 0; p < row.procs; ++p)
          world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
              .degree = world.topology().degree(p)}));
        pif_at(world, 0).request(Value::integer(7));
        world.set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
        const auto reason = world.run(50'000'000, [](Simulator& s) {
          return pif_at(s, 0).done();
        });
        row.done = reason == Simulator::StopReason::Predicate;
        row.steps = static_cast<double>(world.step_count());
        row.deliveries = static_cast<double>(world.metrics().deliveries);
        return row;
      });
  bool all_done = true;
  for (const auto& row : rows) {
    all_done = all_done && row.done;
    reach.add_row({row.name, TextTable::cell(row.procs),
                   TextTable::cell(row.edges), TextTable::cell(row.steps, 0),
                   TextTable::cell(row.deliveries, 0),
                   row.done ? "yes" : "NO"});
  }
  reach.print();

  verdict(incremental_rate > legacy_rate,
          "incremental enabled-step index beats the scanning scheduler on "
          "complete(n)");
  verdict(all_done, "PIF reaches a decision on every topology shape");

  BenchJson json("exp_topology");
  json.set("n", n);
  json.set("steps", static_cast<std::int64_t>(steps));
  json.set("incremental_steps_per_sec", incremental_rate);
  json.set("legacy_steps_per_sec", legacy_rate);
  json.set("speedup", incremental_rate / legacy_rate);
  json.set("all_done", all_done);
  return finish(json, args);
}
