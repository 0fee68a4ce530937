// exp_me — Experiments E5 + E11: Theorem 4 (mutual exclusion).
//
// Part 1 (E5): fuzzed validation — every requesting process is served, no
// requested critical section ever overlaps another CS, across sizes, seeds
// and loss rates. Includes the mod-(n+1) regression: the paper's literal A7
// increment deadlocks once Value_L reaches n.
//
// Part 2 (E11): service metrics — CS grants per million steps, request-to-CS
// latency, per-process fairness, messages per grant.
//
// Requests go through the svc session API: submit-while-busy queues at the
// host, so no caller-managed retry loop is needed: submit -> await_all ->
// resubmit.
#include "exp_common.hpp"
#include "svc/client.hpp"

namespace snapstab::bench {
namespace {

using sim::Simulator;

struct ValidationCell {
  int runs = 0;
  int violations = 0;
  int unserved = 0;
};

ValidationCell validate(int n, double loss, int trials,
                        std::uint64_t seed0) {
  ValidationCell cell;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(t);
    auto world = me_world(n, seed);
    Rng rng(seed ^ 0xACE);
    sim::fuzz(*world, rng);
    world->set_scheduler(std::make_unique<sim::RandomScheduler>(
        seed, sim::LossOptions{.rate = loss, .max_consecutive = 5}));

    // One CS session per process: a fuzzed ghost computation in the ME
    // layer queues the session instead of refusing it.
    svc::Client client(*world);
    std::vector<svc::Session> sessions;
    for (int p = 0; p < n; ++p)
      sessions.push_back(client.submit(p, svc::CriticalSection{}));
    const bool served = client.await_all(sessions, {.max_steps = 8'000'000}) ==
                        svc::AwaitResult::Done;
    ++cell.runs;
    if (!served) ++cell.unserved;
    const auto report =
        core::check_me_spec(*world, {.require_liveness = served});
    if (!report.ok()) ++cell.violations;
  }
  return cell;
}

struct ServiceCell {
  std::uint64_t steps = 0;
  std::uint64_t sends = 0;
  int grants = 0;
  int min_per_process = 0;
  int max_per_process = 0;
  Summary latency;
};

ServiceCell service(int n, std::uint64_t seed, std::uint64_t budget) {
  auto world = me_world(n, seed);
  world->set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
  svc::Client client(*world);
  std::vector<svc::Session> active;
  std::vector<std::uint64_t> request_step(static_cast<std::size_t>(n), 0);
  for (int p = 0; p < n; ++p) {
    active.push_back(client.submit(p, svc::CriticalSection{}));
    request_step[static_cast<std::size_t>(p)] = world->step_count();
  }
  ServiceCell cell;
  std::vector<int> grants(static_cast<std::size_t>(n), 0);
  std::uint64_t remaining = budget;
  while (remaining > 0) {
    // Small chunks keep the request->CS latency samples fine-grained.
    const std::uint64_t chunk = std::min<std::uint64_t>(remaining, 200);
    world->run(chunk);
    remaining -= chunk;
    for (int p = 0; p < n; ++p) {
      const auto ri = static_cast<std::size_t>(p);
      if (client.done(active[ri])) {
        ++grants[ri];
        cell.latency.add(
            static_cast<double>(world->step_count() - request_step[ri]));
        client.release(active[ri]);  // recycle the completed record
        active[ri] = client.submit(p, svc::CriticalSection{});
        request_step[ri] = world->step_count();
      }
    }
  }
  cell.steps = world->step_count();
  cell.sends = world->metrics().sends;
  cell.grants = 0;
  cell.min_per_process = grants[0];
  cell.max_per_process = grants[0];
  for (const int g : grants) {
    cell.grants += g;
    cell.min_per_process = std::min(cell.min_per_process, g);
    cell.max_per_process = std::max(cell.max_per_process, g);
  }
  return cell;
}

bool paper_faithful_deadlock(int n) {
  core::MeOptions opts;
  opts.paper_faithful_increment = true;
  auto world = me_world(n, 77, opts);
  // Plant the poison value n at the leader and request elsewhere.
  world->process_as<svc::ServiceHost>(0).me().mutable_state().value = n;
  world->set_scheduler(std::make_unique<sim::RandomScheduler>(78));
  svc::Client client(*world);
  const svc::Session session = client.submit(1, svc::CriticalSection{});
  return client.await_all({session}, {.max_steps = 600'000}) !=
         svc::AwaitResult::Done;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"trials", "seed", "budget", "json"});
  const int trials = static_cast<int>(args.get_int("trials", 12));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3000));
  const auto budget =
      static_cast<std::uint64_t>(args.get_int("budget", 1'000'000));

  banner("E5/E11: exp_me", "Theorem 4 (Protocol ME is snap-stabilizing)",
         "Part 1: fuzzed validation of Specification 3. Part 2: service\n"
         "metrics under saturation. Part 3: the mod-(n+1) regression.");

  std::printf("--- Part 1: validation from arbitrary configurations ---\n");
  TextTable validation({"n", "loss", "runs", "spec violations",
                        "requests unserved"});
  int total_violations = 0;
  int total_unserved = 0;
  for (int n : {2, 3, 5}) {
    for (double loss : {0.0, 0.15}) {
      const auto cell = validate(n, loss, trials,
                                 seed + static_cast<std::uint64_t>(n) * 211);
      total_violations += cell.violations;
      total_unserved += cell.unserved;
      validation.add_row({TextTable::cell(n), TextTable::cell(loss, 2),
                          TextTable::cell(cell.runs),
                          TextTable::cell(cell.violations),
                          TextTable::cell(cell.unserved)});
    }
  }
  validation.print();

  std::printf("\n--- Part 2: service metrics (all processes saturating) ---\n");
  TextTable metrics({"n", "steps", "grants", "grants/Msteps",
                     "latency mean (steps)", "latency p95", "fairness min/max",
                     "msgs per grant"});
  for (int n : {2, 3, 5, 8}) {
    const auto cell = service(n, seed + static_cast<std::uint64_t>(n), budget);
    char fair[32];
    std::snprintf(fair, sizeof fair, "%d/%d", cell.min_per_process,
                  cell.max_per_process);
    metrics.add_row(
        {TextTable::cell(n), TextTable::cell(cell.steps),
         TextTable::cell(cell.grants),
         TextTable::cell(static_cast<double>(cell.grants) * 1e6 /
                             static_cast<double>(cell.steps),
                         1),
         cell.latency.empty() ? "-" : TextTable::cell(cell.latency.mean(), 0),
         cell.latency.empty() ? "-"
                              : TextTable::cell(cell.latency.percentile(95), 0),
         fair,
         cell.grants == 0
             ? "-"
             : TextTable::cell(static_cast<double>(cell.sends) /
                                   static_cast<double>(cell.grants),
                               1)});
  }
  metrics.print();

  std::printf("\n--- Part 3: the A7 increment regression (DESIGN.md §6.1) ---\n");
  TextTable regression({"increment rule", "Value_L = n planted", "requests"});
  const bool deadlocked = paper_faithful_deadlock(3);
  regression.add_row({"paper: (Value+1) mod (n+1)", "yes",
                      deadlocked ? "STARVED (deadlock)" : "served"});
  regression.add_row({"ours: (Value+1) mod n", "n/a (value unreachable)",
                      "served (Part 1)"});
  regression.print();

  verdict(total_violations == 0, "zero Specification-3 violations");
  verdict(total_unserved == 0, "every accepted request reached the CS");
  verdict(deadlocked,
          "the literal mod-(n+1) rule starves once Value_L = n — the "
          "off-by-one the implementation fixes");

  BenchJson json("exp_me");
  json.set("trials", trials);
  json.set("total_violations", total_violations);
  json.set("total_unserved", total_unserved);
  json.set("mod_n_plus_1_deadlocked", deadlocked);
  return finish(json, args);
}
