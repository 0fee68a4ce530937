// exp_forwarding — the routed multi-hop workload: the snap-stabilizing
// message-forwarding service (core/forward.hpp) swept over topology × n ×
// loss-rate.
//
// Each cell repeats independent seeded trials (parallel, one Simulator +
// StringPool per worker): build a forwarding world, fuzz an arbitrary
// initial configuration (corrupted handshakes, queues and channel buffers,
// including forged FwdData/FwdEcho traffic), submit a batch of payloads
// over random routes, run under a lossy random daemon until everything is
// delivered, then check the forwarding specification — every submission
// delivered exactly once, ghosts within the corruption budget. Cost
// metrics: steps and hop transfers per delivered payload.
#include "exp_common.hpp"
#include "trial_runner.hpp"

#include "core/forward_world.hpp"
#include "svc/client.hpp"

namespace snapstab::bench {
namespace {

using sim::Simulator;
using sim::Topology;

constexpr std::int64_t kBase = 1'000'000;

Topology make_topology(const std::string& family, int n, std::uint64_t seed) {
  if (family == "ring") return Topology::ring(n);
  if (family == "line") return Topology::line(n);
  if (family == "star") return Topology::star(n);
  if (family == "tree") return Topology::random_tree(n, seed);
  return Topology::complete(n);
}

struct Trial {
  bool completed = false;
  bool violation = false;
  double steps = 0;
  double hops = 0;
  double ghosts = 0;
};

struct Cell {
  int runs = 0;
  int incomplete = 0;
  int violations = 0;
  Summary steps;
  Summary hops;
  Summary ghosts;
};

Trial run_trial(const std::string& family, int n, double loss, int payloads,
                std::uint64_t seed) {
  Trial out;
  auto world = core::forward_world(make_topology(family, n, seed), 1, seed);

  Rng fuzz_rng(seed * 13 + 1);
  sim::FuzzOptions fuzz_opts;
  fuzz_opts.flag_limit = 4;  // 2c+2 for c = 1
  fuzz_opts.forward_header_n = n;
  sim::fuzz(*world, fuzz_rng, fuzz_opts);
  const std::uint64_t budget = core::forward_ghost_budget(*world);

  Rng pick(seed * 17 + 3);
  svc::Client client(*world);
  int accepted = 0;
  while (accepted < payloads) {
    const auto origin =
        static_cast<int>(pick.below(static_cast<std::uint64_t>(n)));
    const auto dst =
        static_cast<int>(pick.below(static_cast<std::uint64_t>(n)));
    const svc::ForwardMsg msg{dst, Value::integer(kBase + accepted)};
    if (client.submit(origin, msg).accepted()) ++accepted;
  }

  world->set_scheduler(std::make_unique<sim::RandomScheduler>(
      seed + 5, sim::LossOptions{.rate = loss, .max_consecutive = 6}));
  auto scanned = std::make_shared<std::size_t>(0);
  auto matched = std::make_shared<int>(0);
  const auto reason = world->run(
      20'000'000, [scanned, matched, payloads](Simulator& s) {
        const auto& events = s.log().events();
        for (; *scanned < events.size(); ++*scanned) {
          const auto& e = events[*scanned];
          if (e.layer == sim::Layer::Service &&
              e.kind == sim::ObsKind::FwdDeliver && e.value.as_int() >= kBase)
            ++*matched;
        }
        return *matched >= payloads;
      });
  if (reason != Simulator::StopReason::Predicate) {
    // A blown step budget is an incompleteness, not an exactly-once
    // violation; it is reported in its own column / JSON key.
    return out;
  }
  out.completed = true;
  out.steps = static_cast<double>(world->step_count()) / payloads;
  std::uint64_t hops = 0;
  std::uint64_t ghosts = 0;
  for (int p = 0; p < n; ++p)
    hops += world->process_as<svc::ServiceHost>(p).forward().hops_acked();
  for (const auto& e : world->log().events())
    if (e.layer == sim::Layer::Service &&
        e.kind == sim::ObsKind::FwdDeliver && e.value.as_int() < kBase)
      ++ghosts;
  out.hops = static_cast<double>(hops) / payloads;
  out.ghosts = static_cast<double>(ghosts);
  const auto report = core::check_forward_spec(
      *world, {.require_all_delivered = true, .max_ghost_deliveries = budget});
  if (!report.ok()) out.violation = true;
  return out;
}

Cell run_cell(const std::string& family, int n, double loss, int payloads,
              int trials, std::uint64_t seed0, int threads) {
  const auto outcomes = run_trials(trials, threads, [&](int t) {
    return run_trial(family, n, loss, payloads,
                     seed0 + static_cast<std::uint64_t>(t));
  });
  Cell cell;
  for (const auto& out : outcomes) {
    ++cell.runs;
    if (out.violation) ++cell.violations;
    if (!out.completed) {
      ++cell.incomplete;
      continue;
    }
    cell.steps.add(out.steps);
    cell.hops.add(out.hops);
    cell.ghosts.add(out.ghosts);
  }
  return cell;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv,
               {"trials", "seed", "threads", "payloads", "json"});
  const int trials = static_cast<int>(args.get_int("trials", 10));
  const int payloads = static_cast<int>(args.get_int("payloads", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 9100));
  const int threads = trial_thread_count(args, trials);

  banner("E12: exp_forwarding",
         "beyond §4.1: a routed service over an adversarial network",
         "Snap-stabilizing point-to-point forwarding swept over topology ×\n"
         "n × loss-rate: exactly-once delivery from arbitrary initial\n"
         "configurations, and what the hop handshake costs.");

  TextTable table({"topology", "n", "loss", "runs", "violations",
                   "incomplete", "steps/payload", "hops/payload",
                   "ghosts (mean)"});
  int total_violations = 0;
  int total_incomplete = 0;
  int total_runs = 0;
  const char* families[] = {"ring", "line", "star", "tree", "complete"};
  std::uint64_t cell_index = 0;
  for (const char* family : families) {
    for (int n : {4, 8, 16}) {
      for (double loss : {0.0, 0.2}) {
        ++cell_index;
        const auto cell = run_cell(family, n, loss, payloads, trials,
                                   seed + cell_index * 1000, threads);
        total_violations += cell.violations;
        total_incomplete += cell.incomplete;
        total_runs += cell.runs;
        char loss_str[16];
        std::snprintf(loss_str, sizeof loss_str, "%.1f", loss);
        table.add_row({family, TextTable::cell(n), loss_str,
                       TextTable::cell(cell.runs),
                       TextTable::cell(cell.violations),
                       TextTable::cell(cell.incomplete),
                       TextTable::cell(cell.steps.mean(), 0),
                       TextTable::cell(cell.hops.mean(), 1),
                       TextTable::cell(cell.ghosts.mean(), 1)});
      }
    }
  }
  table.print();

  verdict(total_violations == 0,
          "every submission delivered exactly once from every fuzzed "
          "configuration, ghosts within the corruption budget");
  verdict(total_incomplete == 0,
          "every run finished within its step budget");

  BenchJson json("exp_forwarding");
  json.set("trials", trials);
  json.set("threads", threads);
  json.set("payloads", payloads);
  json.set("total_runs", total_runs);
  json.set("total_violations", total_violations);
  json.set("total_incomplete", total_incomplete);
  json.write_if_requested(args);
  return total_violations == 0 ? 0 : 1;
}
