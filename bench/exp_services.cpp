// exp_services — Experiment E13 (extension): the PIF-based services,
// driven through the unified service/session API (svc::Client).
//
// The paper's §4.1 motivates PIF with "Reset, Snapshot, Leader Election,
// and Termination Detection can be solved using a PIF-based solution".
// This experiment validates and costs the three services built in core/:
// global reset, leader election with consistent ranking, and termination
// detection of a token-game diffusing computation — each from fuzzed
// initial configurations, each requested as a session (submit ->
// await_all -> result).
#include <deque>
#include <set>

#include "exp_common.hpp"
#include "svc/client.hpp"

namespace snapstab::bench {
namespace {

using sim::Simulator;

struct ResetCell {
  int runs = 0;
  int failures = 0;
  Summary steps;
};

ResetCell reset_cell(int n, int trials, std::uint64_t seed0) {
  ResetCell cell;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(t);
    Simulator world(n, 1, seed);
    std::vector<int> hooks(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      auto* counter = &hooks[static_cast<std::size_t>(i)];
      world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
          .degree = n - 1, .with_reset = true,
          .on_reset = [counter](sim::Context&) { ++*counter; }}));
    }
    Rng rng(seed * 3);
    sim::fuzz(world, rng);
    world.set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
    svc::Client client(world);
    const auto session = client.submit(0, svc::Reset{});
    const bool done = client.await_all({session}, {.max_steps = 1'000'000}) ==
                      svc::AwaitResult::Done;
    ++cell.runs;
    bool ok = done && client.result(session).completed;
    for (int i = 0; i < n && ok; ++i)
      ok = hooks[static_cast<std::size_t>(i)] >= 1;
    if (!ok) ++cell.failures;
    if (done) cell.steps.add(static_cast<double>(world.step_count()));
  }
  return cell;
}

struct ElectionCell {
  int runs = 0;
  int failures = 0;
  Summary steps;
};

ElectionCell election_cell(int n, int trials, std::uint64_t seed0) {
  ElectionCell cell;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(t);
    std::vector<std::int64_t> ids;
    Rng id_rng(seed * 11);
    for (int i = 0; i < n; ++i) ids.push_back(id_rng.range(1, 9999) * 100 + i);
    Simulator world(n, 1, seed);
    for (int i = 0; i < n; ++i)
      world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
          .id = ids[static_cast<std::size_t>(i)], .degree = n - 1,
          .with_election = true}));
    Rng rng(seed * 7);
    sim::fuzz(world, rng);
    world.set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
    svc::Client client(world);
    std::vector<svc::Session> sessions;
    for (int p = 0; p < n; ++p)
      sessions.push_back(client.submit(p, svc::Election{}));
    const bool done = client.await_all(sessions, {.max_steps = 3'000'000}) ==
                      svc::AwaitResult::Done;
    ++cell.runs;
    bool ok = done;
    if (ok) {
      const std::int64_t expected =
          *std::min_element(ids.begin(), ids.end());
      std::set<int> ranks;
      for (int p = 0; p < n; ++p) {
        const auto r = client.result(sessions[static_cast<std::size_t>(p)]);
        if (!r.completed || r.min_id != expected) ok = false;
        ranks.insert(r.rank);
      }
      if (static_cast<int>(ranks.size()) != n) ok = false;
      cell.steps.add(static_cast<double>(world.step_count()));
    }
    if (!ok) ++cell.failures;
  }
  return cell;
}

struct TdCell {
  int runs = 0;
  int false_claims = 0;
  int no_claims = 0;
  Summary waves;
};

TdCell termdetect_cell(int n, int tokens, int trials, std::uint64_t seed0) {
  TdCell cell;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(t);
    Simulator world(n, 1, seed);
    struct App {
      std::deque<int> held;
      std::uint32_t sent = 0, received = 0;
    };
    std::vector<std::unique_ptr<App>> apps;
    for (int i = 0; i < n; ++i) {
      apps.push_back(std::make_unique<App>());
      App* app = apps.back().get();
      core::DiffusingApp hooks;
      hooks.counters = [app] {
        return core::AppCounters{app->held.empty(), app->sent, app->received};
      };
      hooks.has_work = [app] { return !app->held.empty(); };
      hooks.on_tick = [app](sim::Context& ctx) {
        if (app->held.empty()) return;
        const int ttl = app->held.front();
        if (ttl <= 0) {
          app->held.pop_front();
          return;
        }
        const int ch = static_cast<int>(
            ctx.rng().below(static_cast<std::uint64_t>(ctx.degree())));
        if (ctx.send(ch, Message::app(Value::integer(ttl - 1)))) {
          app->held.pop_front();
          ++app->sent;
        }
      };
      hooks.on_message = [app](sim::Context&, int, const Value& v) {
        ++app->received;
        app->held.push_back(static_cast<int>(v.as_int(0)));
      };
      world.add_process(
          std::make_unique<svc::ServiceHost>(svc::HostConfig{
              .degree = n - 1, .with_termdetect = true,
              .app = std::move(hooks)}));
    }
    Rng rng(seed * 5);
    for (int k = 0; k < tokens; ++k)
      apps[rng.below(static_cast<std::uint64_t>(n))]->held.push_back(
          static_cast<int>(rng.below(10)));
    world.set_scheduler(std::make_unique<sim::RandomScheduler>(seed));
    svc::Client client(world);
    const auto session = client.submit(0, svc::TermDetect{});
    const bool done = client.await_all({session}, {.max_steps = 6'000'000}) ==
                      svc::AwaitResult::Done;
    ++cell.runs;
    if (!done) {
      ++cell.no_claims;
      continue;
    }
    // Safety audit at claim time: no token held, none in flight.
    bool live = false;
    for (const auto& app : apps)
      if (!app->held.empty()) live = true;
    for (int s = 0; s < n && !live; ++s)
      for (int d = 0; d < n && !live; ++d) {
        if (s == d) continue;
        for (const auto& m : world.network().channel(s, d).contents())
          if (m.kind == MsgKind::App) live = true;
      }
    if (live) ++cell.false_claims;
    cell.waves.add(static_cast<double>(client.result(session).waves));
  }
  return cell;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"trials", "seed", "json"});
  const int trials = static_cast<int>(args.get_int("trials", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 8800));

  banner("E13: exp_services",
         "§4.1: 'Reset, Snapshot, Leader Election, and Termination "
         "Detection can be solved using a PIF-based solution'",
         "Validation and cost of the three PIF-based services from fuzzed\n"
         "initial configurations, driven through the svc session API.");

  std::printf("--- Global reset ---\n");
  TextTable reset_table({"n", "runs", "failures", "steps (mean)"});
  int reset_failures = 0;
  for (int n : {2, 4, 8}) {
    const auto cell =
        reset_cell(n, trials, seed + static_cast<std::uint64_t>(n));
    reset_failures += cell.failures;
    reset_table.add_row({TextTable::cell(n), TextTable::cell(cell.runs),
                         TextTable::cell(cell.failures),
                         cell.steps.empty()
                             ? "-"
                             : TextTable::cell(cell.steps.mean(), 0)});
  }
  reset_table.print();

  std::printf("\n--- Leader election + consistent ranking ---\n");
  TextTable election_table({"n", "runs", "failures", "steps (mean)"});
  int election_failures = 0;
  for (int n : {2, 4, 8}) {
    const auto cell =
        election_cell(n, trials, seed + 100 + static_cast<std::uint64_t>(n));
    election_failures += cell.failures;
    election_table.add_row({TextTable::cell(n), TextTable::cell(cell.runs),
                            TextTable::cell(cell.failures),
                            cell.steps.empty()
                                ? "-"
                                : TextTable::cell(cell.steps.mean(), 0)});
  }
  election_table.print();

  std::printf("\n--- Termination detection (token game) ---\n");
  TextTable td_table({"n", "tokens", "runs", "false claims", "no claim",
                      "waves (mean)"});
  int false_claims = 0;
  int no_claims = 0;
  for (int n : {2, 3, 5}) {
    for (int tokens : {0, 4, 12}) {
      const auto cell = termdetect_cell(
          n, tokens, trials,
          seed + 200 + static_cast<std::uint64_t>(n * 10 + tokens));
      false_claims += cell.false_claims;
      no_claims += cell.no_claims;
      td_table.add_row({TextTable::cell(n), TextTable::cell(tokens),
                        TextTable::cell(cell.runs),
                        TextTable::cell(cell.false_claims),
                        TextTable::cell(cell.no_claims),
                        cell.waves.empty()
                            ? "-"
                            : TextTable::cell(cell.waves.mean(), 1)});
    }
  }
  td_table.print();

  verdict(reset_failures == 0, "every reset reached every process");
  verdict(election_failures == 0,
          "every election agreed on leader and ranking");
  verdict(false_claims == 0,
          "the termination detector never claimed with live tokens");
  verdict(no_claims == 0, "every detection eventually claimed");

  BenchJson json("exp_services");
  json.set("trials", trials);
  json.set("api", "svc-session");
  json.set("reset_failures", reset_failures);
  json.set("election_failures", election_failures);
  json.set("false_claims", false_claims);
  json.set("no_claims", no_claims);
  json.write_if_requested(args);
  return 0;
}
