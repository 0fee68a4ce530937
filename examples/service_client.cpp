// service_client — ONE client program, THREE execution backends.
//
// The unified service API (svc::ServiceHost + svc::Client) exposes every
// snap-stabilizing protocol through the same submit / poll / complete
// surface — the paper's three-valued Request variable, turned into a
// session handle. This example writes a single client program (a PIF
// broadcast, a queued second broadcast, and a full leader election) and
// runs it, unchanged, against
//   1. the deterministic discrete-event Simulator,
//   2. the ThreadRuntime (one OS thread per process, codec-encoded
//      mailboxes, genuine concurrency), and
//   3. the SocketRuntime (real UDP datagrams over the loopback
//      interface — every message crosses the kernel as a framed packet),
// then checks that all three produced the same answers (exit 1 if not).
//
// Build & run:  ./examples/example_service_client
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "net/socket_runtime.hpp"
#include "runtime/thread_runtime.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"

using namespace snapstab;

namespace {

constexpr int kN = 4;

// Every node hosts PIF + IDL + election; ids descend so node 3 leads.
svc::HostConfig host_config(int p) {
  svc::HostConfig cfg;
  cfg.id = 100 - p;
  cfg.degree = kN - 1;
  cfg.channel_capacity = 1;
  cfg.with_election = true;
  return cfg;
}

// What the client program learned: the leader and rank each node elected,
// and the two broadcast values.
struct Transcript {
  std::vector<std::int64_t> leaders;
  std::vector<int> ranks;
  Value hello;
  Value world;

  bool operator==(const Transcript&) const = default;
};

// The client program — written once against the backend-neutral Client.
template <typename Backend>
std::optional<Transcript> client_program(Backend& backend, const char* label) {
  std::printf("--- %s ---\n", label);
  svc::Client client(backend);

  // Two broadcasts at node 0: the second queues behind the first (the
  // pending-request queue replaces caller-managed retries).
  auto hello = client.submit(0, svc::PifBroadcast{Value::text("hello")});
  auto world = client.submit(0, svc::PifBroadcast{Value::text("world")});
  std::printf("submitted %s seq=%u and %s seq=%u (second queued: %s)\n",
              svc::service_name(hello.key.service), hello.key.seq,
              svc::service_name(world.key.service), world.key.seq,
              client.state(world) == svc::SessionState::Wait ? "yes" : "no");

  // A full election, one session per node.
  std::vector<svc::Session> sessions = {hello, world};
  for (int p = 0; p < kN; ++p)
    sessions.push_back(client.submit(p, svc::Election{}));

  if (client.await_all(sessions) != svc::AwaitResult::Done) {
    std::printf("ERROR: sessions did not complete\n");
    return std::nullopt;
  }
  Transcript t;
  for (int p = 0; p < kN; ++p) {
    const auto r = client.result(sessions[2 + static_cast<std::size_t>(p)]);
    std::printf("node %d: leader=%lld rank=%d\n", p,
                static_cast<long long>(r.min_id), r.rank);
    t.leaders.push_back(r.min_id);
    t.ranks.push_back(r.rank);
  }
  t.hello = client.result(hello).value;
  t.world = client.result(world).value;
  std::printf("broadcasts: '%s', '%s' — both Done\n\n",
              t.hello.to_string().c_str(), t.world.to_string().c_str());
  return t;
}

}  // namespace

int main() {
  std::printf("One service-client program, three backends\n\n");

  // Backend 1: the deterministic Simulator.
  sim::Simulator world(kN, 1, 2026);
  for (int p = 0; p < kN; ++p)
    world.add_process(std::make_unique<svc::ServiceHost>(host_config(p)));
  world.set_scheduler(std::make_unique<sim::RandomScheduler>(7));
  const auto on_sim = client_program(world, "Simulator (deterministic)");
  if (!on_sim) return 1;
  std::printf("simulator finished in %llu steps\n\n",
              static_cast<unsigned long long>(world.step_count()));

  // Backend 2: the thread runtime — same hosts, same program.
  runtime::ThreadRuntime rt(kN, {.seed = 2026});
  for (int p = 0; p < kN; ++p)
    rt.add_process(std::make_unique<svc::ServiceHost>(host_config(p)));
  const auto on_mailbox =
      client_program(rt, "ThreadRuntime (one thread per process)");
  rt.shutdown();
  if (!on_mailbox) return 1;

  // Backend 3: the real-wire runtime — same hosts, same program, but every
  // message is a UDP datagram through the kernel's loopback stack.
  net::SocketRuntime srt(kN, {.seed = 2026});
  for (int p = 0; p < kN; ++p)
    srt.add_process(std::make_unique<svc::ServiceHost>(host_config(p)));
  const auto on_udp = client_program(srt, "SocketRuntime (UDP loopback)");
  srt.shutdown();
  if (!on_udp) return 1;
  const auto stats = srt.wire_stats();
  std::printf("socket runtime: %llu datagrams sent, %llu delivered\n\n",
              static_cast<unsigned long long>(stats.datagrams_sent),
              static_cast<unsigned long long>(stats.delivered));

  if (!(*on_mailbox == *on_sim) || !(*on_udp == *on_sim)) {
    std::printf("MISMATCH: the backends disagree on the outcomes.\n");
    return 1;
  }
  std::printf("same client code, same sessions, same answers.\n");
  return 0;
}
