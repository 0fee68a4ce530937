// exp_idl — Experiment E4: Theorem 3 (IDs-Learning), empirically.
//
// Every process requests an IDL computation (one svc session each) from
// fuzzed configurations; after each started-and-terminated computation the
// table and minimum must be exact. Also reports the cost of learning
// (rounds, messages).
#include "exp_common.hpp"
#include "svc/client.hpp"

namespace snapstab::bench {
namespace {

using sim::Simulator;

struct Cell {
  int runs = 0;
  int violations = 0;
  Summary rounds;
  Summary sends;
};

Cell run_cell(int n, bool corrupted, int trials, std::uint64_t seed0) {
  Cell cell;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(t);
    std::vector<std::int64_t> ids;
    Rng id_rng(seed * 13);
    for (int i = 0; i < n; ++i)
      ids.push_back(id_rng.range(0, 10'000) * 100 + i);  // unique

    Simulator world(n, 1, seed);
    for (int i = 0; i < n; ++i)
      world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
          .id = ids[static_cast<std::size_t>(i)], .degree = n - 1,
          .with_idl = true}));
    if (corrupted) {
      Rng rng(seed ^ 0xDEAD);
      sim::fuzz(world, rng);
    }
    world.set_scheduler(std::make_unique<sim::RoundRobinScheduler>(seed));
    svc::Client client(world);
    std::vector<svc::Session> sessions;
    for (int p = 0; p < n; ++p)
      sessions.push_back(client.submit(p, svc::Idl{}));
    const bool done = client.await_all(sessions, {.max_steps = 5'000'000}) ==
                      svc::AwaitResult::Done;
    ++cell.runs;
    if (!done) {
      ++cell.violations;
      continue;
    }
    cell.rounds.add(static_cast<double>(rounds_of(world)));
    cell.sends.add(static_cast<double>(world.metrics().sends));
    const auto report = core::check_idl_spec(
        world,
        [&world](sim::ProcessId p) -> const core::Idl& {
          return world.process_as<svc::ServiceHost>(p).idl();
        },
        ids);
    if (!report.ok()) ++cell.violations;
  }
  return cell;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"trials", "seed", "json"});
  const int trials = static_cast<int>(args.get_int("trials", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  banner("E4: exp_idl", "Theorem 3 (Protocol IDL is snap-stabilizing)",
         "All-processes IDs-Learning from clean and arbitrary initial\n"
         "configurations: exact tables required after every computation.");

  TextTable table({"n", "initial config", "runs", "violations",
                   "rounds (mean)", "msgs sent (mean)"});
  int total_violations = 0;
  for (int n : {2, 4, 8, 16}) {
    for (const bool corrupted : {false, true}) {
      const auto cell = run_cell(n, corrupted, trials,
                                 seed + static_cast<std::uint64_t>(n) * 101);
      total_violations += cell.violations;
      table.add_row({TextTable::cell(n), corrupted ? "arbitrary" : "clean",
                     TextTable::cell(cell.runs),
                     TextTable::cell(cell.violations),
                     cell.rounds.empty() ? "-"
                                         : TextTable::cell(cell.rounds.mean(), 1),
                     cell.sends.empty() ? "-"
                                        : TextTable::cell(cell.sends.mean(), 0)});
    }
  }
  table.print();
  verdict(total_violations == 0,
          "every started IDs-Learning computation produced the exact "
          "neighbor table and minimum");

  BenchJson json("exp_idl");
  json.set("trials", trials);
  json.set("total_violations", total_violations);
  json.write_if_requested(args);
  return 0;
}
