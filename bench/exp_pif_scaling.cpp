// exp_pif_scaling — Experiment E8: cost of Protocol PIF vs system size.
//
// Round complexity and message complexity of one PIF computation under the
// synchronous round-robin daemon, for clean and corrupted starts. The
// expected shape: rounds stay O(1) in n (the per-neighbor handshakes run in
// parallel: 4 round trips + constant), messages grow Θ(n) per computation
// (the initiator handshakes with n-1 neighbors), and corruption adds only a
// constant number of extra exchanges (the stale fuel of Figure 1).
#include "exp_common.hpp"
#include "trial_runner.hpp"

namespace snapstab::bench {
namespace {

using sim::Simulator;

struct Cell {
  Summary rounds;
  Summary sends;
  Summary deliveries;
  int failures = 0;
};

Cell run_cell(int n, bool corrupted, int trials, std::uint64_t seed0,
              int threads) {
  struct Trial {
    bool completed = false;
    double rounds = 0;
    double sends = 0;
    double deliveries = 0;
  };
  const auto outcomes = run_trials(trials, threads, [&](int t) {
    Trial out;
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(t);
    auto world = pif_world(n, 1, seed);
    if (corrupted) {
      Rng rng(seed * 31);
      sim::fuzz(*world, rng);
    }
    world->set_scheduler(std::make_unique<sim::RoundRobinScheduler>(seed));
    pif_at(*world, 0).request(Value::integer(t));
    const auto reason = world->run(5'000'000, [](Simulator& s) {
      return pif_at(s, 0).done();
    });
    if (reason != Simulator::StopReason::Predicate) return out;
    out.completed = true;
    out.rounds = static_cast<double>(rounds_of(*world));
    out.sends = static_cast<double>(world->metrics().sends);
    out.deliveries = static_cast<double>(world->metrics().deliveries);
    return out;
  });

  Cell cell;
  for (const auto& out : outcomes) {
    if (!out.completed) {
      ++cell.failures;
      continue;
    }
    cell.rounds.add(out.rounds);
    cell.sends.add(out.sends);
    cell.deliveries.add(out.deliveries);
  }
  return cell;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"trials", "seed", "max-n", "threads", "json"});
  const int trials = static_cast<int>(args.get_int("trials", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 5000));
  const int max_n = static_cast<int>(args.get_int("max-n", 64));
  const int threads = trial_thread_count(args, trials);

  banner("E8: exp_pif_scaling", "Protocol PIF complexity (implied by §4.1)",
         "Rounds and messages for one PIF computation vs n, clean vs\n"
         "corrupted start, synchronous daemon.");

  TextTable table({"n", "initial config", "rounds (mean)", "rounds (max)",
                   "msgs sent (mean)", "msgs/n", "failures"});
  bool constant_rounds = true;
  double rounds_n2 = 0;
  for (int n = 2; n <= max_n; n *= 2) {
    for (const bool corrupted : {false, true}) {
      const auto cell = run_cell(n, corrupted, trials,
                                 seed + static_cast<std::uint64_t>(n),
                                 threads);
      if (n == 2 && !corrupted) rounds_n2 = cell.rounds.mean();
      if (!corrupted && cell.rounds.mean() > rounds_n2 * 4)
        constant_rounds = false;
      table.add_row(
          {TextTable::cell(n), corrupted ? "arbitrary" : "clean",
           TextTable::cell(cell.rounds.mean(), 1),
           TextTable::cell(cell.rounds.max(), 0),
           TextTable::cell(cell.sends.mean(), 1),
           TextTable::cell(cell.sends.mean() / n, 1),
           TextTable::cell(cell.failures)});
    }
  }
  table.print();
  verdict(constant_rounds,
          "round complexity is O(1) in n (parallel per-neighbor handshakes)");

  BenchJson json("exp_pif_scaling");
  json.set("trials", trials);
  json.set("threads", threads);
  json.set("max_n", max_n);
  json.set("rounds_mean_n2_clean", rounds_n2);
  json.set("constant_rounds", constant_rounds);
  json.write_if_requested(args);
  return 0;
}
