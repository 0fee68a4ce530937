// message_routing — the forwarding service as an application would use it.
//
// A random tree of 8 nodes, every channel lossy and bounded; node 2 sends
// "meet at noon" to node 7. The payload crosses the tree hop by hop, each
// hop guarded by the PIF flag-counting handshake — and we start from a
// deliberately corrupted configuration (scrambled hop handshakes, garbage
// queues, channels stuffed with forged forwarding traffic). The message
// still arrives, exactly once: snap-stabilization, now end-to-end.
//
// The submission is a ForwardMsg session: the admission reason is explicit
// (Accepted / BufferFull / NoRoute / SelfDestination) and the session
// completes when the delivery ack surfaces at the destination.
//
// Build & run:  ./examples/example_message_routing
#include <cstdio>
#include <memory>

#include "core/forward_world.hpp"
#include "core/specs.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "sim/timeline.hpp"
#include "svc/client.hpp"

using namespace snapstab;

int main() {
  std::printf("Snap-stabilizing message forwarding: 2 -> 7 over a tree\n\n");

  auto world = core::forward_world(sim::Topology::random_tree(8, /*seed=*/4),
                                   /*channel capacity=*/1, /*seed=*/2026);
  const sim::RoutingTable routes(world->topology());
  std::printf("route: 2");
  for (int at = 2; at != 7; at = routes.next_hop(at, 7))
    std::printf(" -> %d", routes.next_hop(at, 7));
  std::printf("  (%d hops)\n", routes.distance(2, 7));

  // Transient fault: scramble every hop handshake and queue, stuff forged
  // FwdData/FwdEcho datagrams into the channels.
  Rng chaos(11);
  sim::FuzzOptions fuzz_opts;
  fuzz_opts.flag_limit = 4;
  fuzz_opts.forward_header_n = 8;
  sim::fuzz(*world, chaos, fuzz_opts);
  std::printf("initial configuration: corrupted (%zu forged messages in "
              "flight)\n\n",
              world->network().total_messages_in_flight());

  world->set_scheduler(std::make_unique<sim::RandomScheduler>(
      5, sim::LossOptions{.rate = 0.2, .max_consecutive = 4}));

  // The request, made after the faults ceased: one ForwardMsg session.
  svc::Client client(*world);
  const svc::Session msg = client.submit(
      2, svc::ForwardMsg{.dst = 7, .payload = Value::text("meet at noon")});
  std::printf("submission admitted: %s\n",
              core::forward_submit_name(msg.admission));
  if (!msg.accepted()) {
    // A refused session is born Done with completed=false — await_all
    // returning Done would NOT mean delivery.
    std::printf("ERROR: the service refused the submission\n");
    return 1;
  }

  if (client.await_all({msg}, {.max_steps = 2'000'000}) !=
      svc::AwaitResult::Done) {
    std::printf("ERROR: the payload was not delivered\n");
    return 1;
  }

  sim::TimelineOptions only_service;
  only_service.layer = sim::Layer::Service;
  std::printf("%s\n", sim::render_timeline(world->log(), only_service).c_str());

  const auto report = core::check_forward_spec(
      *world, {.require_all_delivered = true,
               .max_ghost_deliveries = 1'000'000});  // ghosts shown above
  std::printf("\nforwarding spec (exactly-once): %s\n",
              report.ok() ? "OK" : report.summary().c_str());
  std::printf("delivery ack '%s' across %llu acked hops in %llu steps, "
              "despite the corrupted start and 20%% loss.\n",
              client.result(msg).value.to_string().c_str(),
              static_cast<unsigned long long>([&] {
                std::uint64_t hops = 0;
                for (int p = 0; p < 8; ++p)
                  hops += world->process_as<svc::ServiceHost>(p)
                              .forward()
                              .hops_acked();
                return hops;
              }()),
              static_cast<unsigned long long>(world->step_count()));
  return 0;
}
