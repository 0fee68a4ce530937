// fault_injection — snap-stabilization under repeated transient faults.
//
// A PIF service answers requests in a loop. Between any two computations an
// adversary scrambles every process variable and refills the channels with
// garbage (a fresh transient fault each round). Snap-stabilization promises
// that *every* request — including the very first after each fault — is
// served correctly; self-stabilization would only promise it eventually.
//
// Build & run:  ./examples/fault_injection [--faults 10]
#include <cstdio>
#include <memory>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "svc/host.hpp"

using namespace snapstab;

int main(int argc, char** argv) {
  CliArgs args(argc, argv, {"faults", "n", "seed"});
  const int faults = static_cast<int>(args.get_int("faults", 10));
  const int n = static_cast<int>(args.get_int("n", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1234));

  std::printf(
      "Fault injection: %d rounds of (scramble everything -> request -> "
      "verify)\non a %d-process PIF service.\n\n",
      faults, n);

  sim::Simulator world(n, 1, seed);
  for (int i = 0; i < n; ++i)
    world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1}));
  world.set_scheduler(std::make_unique<sim::RandomScheduler>(seed + 1));
  Rng chaos(seed + 2);
  svc::Client client(world);

  TextTable table({"round", "stale msgs injected", "steps to decide",
                   "peers reached", "verdict"});
  bool all_good = true;
  for (int round = 0; round < faults; ++round) {
    // The transient fault: arbitrary states, garbage-filled channels.
    sim::fuzz(world, chaos,
              sim::FuzzOptions{.channel_fill = 1.0, .flag_limit = 4});
    const auto injected = world.network().total_messages_in_flight();

    const Value payload = Value::integer(7'000'000 + round);
    const std::uint64_t before = world.step_count();
    const std::size_t log_before = world.log().events().size();
    // The session starts as soon as p0's layer is free of any ghost
    // computation the fault left behind.
    const svc::Session request =
        client.submit(0, svc::PifBroadcast{payload});
    const bool decided = client.await_all({request}, {.max_steps = 500'000}) ==
                         svc::AwaitResult::Done;
    client.release(request);

    int peers_reached = 0;
    const auto& events = world.log().events();
    for (std::size_t i = log_before; i < events.size(); ++i)
      if (events[i].kind == sim::ObsKind::RecvBrd &&
          events[i].value == payload)
        ++peers_reached;
    const bool good = decided && peers_reached == n - 1;
    all_good = all_good && good;
    table.add_row({TextTable::cell(round + 1), TextTable::cell(injected),
                   TextTable::cell(world.step_count() - before),
                   TextTable::cell(peers_reached),
                   good ? "served correctly" : "FAILED"});
  }
  table.print();
  std::printf("\n%s\n",
              all_good
                  ? "Every post-fault request was served correctly on the "
                    "first try — no convergence phase."
                  : "Some request was not served correctly!");
  return all_good ? 0 : 1;
}
