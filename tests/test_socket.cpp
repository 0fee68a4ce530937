// test_socket.cpp — the real-wire runtime: loopback integration tier.
//
// Everything here crosses the kernel as genuine UDP datagrams. The tiers:
//   * wire-frame unit tests (round trip, every rejection, name helper,
//     random + bit-flipped fuzz — decode_frame must be total);
//   * loopback sessions: every service completes over real sockets, with
//     SessionResults identical to the deterministic Simulator's;
//   * hostile traffic: injected garbage datagrams are counted and dropped
//     while live sessions keep completing;
//   * injected loss: the flag-counting handshake recovers from ≥15%
//     datagram loss (seeded — the failure message is the repro line);
//   * the receive drain: PIF sessions stay under a datagram budget, and a
//     flood of framed traffic into one node does not starve its ticks;
//   * the fault engine: a compiled FaultPlan drives the receive-side
//     drop/duplicate/LinkDown filter and framed garbage datagrams, and
//     after the storm ceases fresh sessions complete (the
//     snap-stabilization contract);
//   * multi-process: a forked child hosts one node on a fixed port; a real
//     SIGKILL stalls the protocol, a respawned child lets it finish — and
//     the injector delivers the SIGKILL itself via set_node_pid.
//
// This file defines its own main: `test_socket --socket-child ...` re-runs
// the binary as a bare one-node SocketRuntime host (execv from a forked
// child — never gtest from a fork of a multithreaded parent).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/stack.hpp"
#include "fault/plan.hpp"
#include "fault/runtime_injector.hpp"
#include "net/socket_runtime.hpp"
#include "net/wire.hpp"
#include "svc/client.hpp"
#include "svc/host.hpp"

namespace snapstab {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Wire frame: unit tier.
// ---------------------------------------------------------------------------

TEST(WireFrame, RoundTripsEdgeAndMessage) {
  const Message m =
      Message::pif(Value::text("over the wire"), Value::integer(7), 2, 1);
  const auto frame = net::encode_frame(11, m);
  ASSERT_GE(frame.size(), net::kWireHeaderSize);
  const net::DecodedFrame d = net::decode_frame(frame);
  ASSERT_TRUE(d.ok()) << net::wire_frame_result_name(d.result);
  EXPECT_EQ(d.edge, 11);
  EXPECT_EQ(d.message, m);
}

TEST(WireFrame, EveryRejectionFires) {
  const auto good = net::encode_frame(3, Message::naive_brd(Value::none()));
  const auto result = [](std::vector<std::uint8_t> f) {
    return net::decode_frame(f).result;
  };

  auto f = good;
  f.resize(net::kWireHeaderSize - 1);
  EXPECT_EQ(result(f), net::WireFrameResult::TooShort);
  EXPECT_EQ(net::decode_frame(nullptr, 0).result,
            net::WireFrameResult::TooShort);

  f = good;
  f[2] ^= 0x40;
  EXPECT_EQ(result(f), net::WireFrameResult::BadMagic);

  f = good;
  f[4] = net::kWireVersion + 9;
  net::patch_checksum(f);
  EXPECT_EQ(result(f), net::WireFrameResult::BadVersion);

  f = good;
  f.push_back(0x00);  // payload_len no longer matches the datagram size
  EXPECT_EQ(result(f), net::WireFrameResult::BadLength);

  f = good;
  f.back() ^= 0x01;  // one payload bit corrupted in flight
  EXPECT_EQ(result(f), net::WireFrameResult::BadChecksum);

  // Frame-valid but payload-invalid: an unknown codec kind byte survives
  // the checksum (we re-patch) and must die in the codec underneath.
  f = good;
  f[net::kWireHeaderSize] = 0xFF;
  net::patch_checksum(f);
  EXPECT_EQ(result(f), net::WireFrameResult::BadMessage);

  EXPECT_EQ(result(good), net::WireFrameResult::Ok);
}

TEST(WireFrame, ResultNamesAreExhaustive) {
  std::set<std::string> names;
  for (int i = 0; i < net::kWireFrameResultCount; ++i) {
    const char* name =
        net::wire_frame_result_name(static_cast<net::WireFrameResult>(i));
    EXPECT_STRNE(name, "?") << i;
    names.insert(name);
  }
  EXPECT_EQ(static_cast<int>(names.size()), net::kWireFrameResultCount);
}

TEST(WireFrame, FuzzedDatagramsNeverCrash) {
  // decode_frame must be total: the network can hand the receiver
  // anything. Uniform noise probes the header checks; bit-flipped genuine
  // frames probe every validation layer with almost-valid input.
  Rng rng(20260808);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::uint8_t> bytes(rng.below(80));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
    if (net::decode_frame(bytes).ok()) ++accepted;
  }
  EXPECT_EQ(accepted, 0);  // 32-bit magic + 64-bit checksum: not by chance

  for (int i = 0; i < 5000; ++i) {
    const Message m = Message::random(rng, 10, /*wild=*/(i % 3) == 0);
    auto frame =
        net::encode_frame(static_cast<sim::EdgeId>(rng.below(100)), m);
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int k = 0; k < flips; ++k)
      frame[rng.below(frame.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    const net::DecodedFrame d = net::decode_frame(frame);
    if (d.ok()) {
      // Flips that cancel out (or hit only the edge field pre-checksum —
      // impossible, it is covered) must still round-trip as a message.
      EXPECT_TRUE(net::decode_frame(net::encode_frame(d.edge, d.message))
                      .ok());
    }
  }
}

// ---------------------------------------------------------------------------
// Loopback sessions: the full service stack over real sockets.
// ---------------------------------------------------------------------------

svc::HostConfig all_services_config(const sim::Topology& topo,
                                    sim::ProcessId p,
                                    std::shared_ptr<const sim::RoutingTable>
                                        routes) {
  svc::HostConfig cfg;
  cfg.id = 100 - p;  // the highest-numbered process holds the smallest id
  cfg.degree = topo.degree(p);
  cfg.channel_capacity = 1;
  cfg.with_reset = true;
  cfg.with_snapshot = true;
  cfg.with_termdetect = true;
  cfg.with_election = true;
  cfg.local_state = [p] { return Value::integer(1000 + p); };
  // An already-idle diffusing application: termination is claimable
  // immediately, the detection wave itself is what rides the wire.
  cfg.app = core::DiffusingApp{
      .on_message = [](sim::Context&, int, const Value&) {},
      .on_tick = [](sim::Context&) {},
      .has_work = [] { return false; },
      .counters = [] { return core::AppCounters{true, 0, 0}; },
  };
  cfg.routes = std::move(routes);
  cfg.self = p;
  return cfg;
}

struct SessionOutcomes {
  Value pif_value;
  std::vector<std::int64_t> min_ids;
  std::vector<int> ranks;
  bool reset_completed = false;
  Value snapshot_value;
  bool termination_claimed = false;
  bool forward_completed = false;
  Value forward_ack;
};

// The backend-neutral client program both backends run: one session per
// service, all awaited together.
template <typename Backend>
bool run_every_service(Backend& backend, const sim::Topology& topo,
                       SessionOutcomes* out, std::string* why) {
  svc::Client client(backend);
  const svc::Session pif =
      client.submit(0, svc::PifBroadcast{Value::text("real wires")});
  const svc::Session idl = client.submit(1, svc::Idl{});
  const svc::Session reset = client.submit(0, svc::Reset{});
  const svc::Session snap = client.submit(2, svc::Snapshot{});
  const svc::Session td = client.submit(1, svc::TermDetect{});
  const svc::Session fwd =
      client.submit(0, svc::ForwardMsg{topo.process_count() - 1,
                                       Value::integer(424242)});
  std::vector<svc::Session> sessions = {pif, idl, reset, snap, td, fwd};
  for (int p = 0; p < topo.process_count(); ++p)
    sessions.push_back(client.submit(p, svc::Election{}));
  if (!client.run_until(sessions, {.max_steps = 20'000'000,
                                   .timeout = 60'000ms})) {
    *why = "sessions did not complete";
    for (const auto& s : sessions)
      if (client.state(s) != svc::SessionState::Done)
        *why += std::string(" [") + svc::service_name(s.key.service) + "]";
    return false;
  }
  out->pif_value = client.result(pif).value;
  for (int p = 0; p < topo.process_count(); ++p) {
    const auto r =
        client.result(sessions[6 + static_cast<std::size_t>(p)]);
    out->min_ids.push_back(r.min_id);
    out->ranks.push_back(r.rank);
  }
  out->reset_completed = client.result(reset).completed;
  out->snapshot_value = client.result(snap).value;
  out->termination_claimed = client.result(td).termination_claimed;
  out->forward_completed = client.result(fwd).completed;
  out->forward_ack = client.result(fwd).value;
  return true;
}

// The eighth service: an ME host's phase cycle owns its whole stack, so a
// CriticalSection grant runs in its own small world.
template <typename Backend>
bool run_cs_grant(Backend& backend, bool* granted) {
  svc::Client client(backend);
  const svc::Session cs = client.submit(1, svc::CriticalSection{});
  if (!client.run_until(cs, {.max_steps = 20'000'000, .timeout = 60'000ms}))
    return false;
  *granted = client.result(cs).cs_granted;
  return true;
}

svc::HostConfig me_config(int p, int n) {
  svc::HostConfig cfg;
  cfg.id = p + 1;
  cfg.degree = n - 1;
  cfg.channel_capacity = 1;
  cfg.with_me = true;
  return cfg;
}

TEST(SocketLoopback, EveryServiceCompletesOverRealSockets) {
  const sim::Topology topo = sim::Topology::complete(4);
  const auto routes = std::make_shared<const sim::RoutingTable>(topo);
  net::SocketRuntime srt(topo, {.seed = 808});
  for (int p = 0; p < topo.process_count(); ++p)
    srt.add_process(std::make_unique<svc::ServiceHost>(
        all_services_config(topo, p, routes)));

  SessionOutcomes got;
  std::string why;
  const bool ok = run_every_service(srt, topo, &got, &why);
  srt.shutdown();
  ASSERT_TRUE(ok) << why;

  EXPECT_EQ(got.pif_value, Value::text("real wires"));
  for (int p = 0; p < topo.process_count(); ++p) {
    EXPECT_EQ(got.min_ids[static_cast<std::size_t>(p)], 97) << "p" << p;
    EXPECT_EQ(got.ranks[static_cast<std::size_t>(p)],
              topo.process_count() - 1 - p)
        << "p" << p;
  }
  EXPECT_TRUE(got.reset_completed);
  EXPECT_TRUE(got.snapshot_value.is_int());
  EXPECT_TRUE(got.termination_claimed);
  EXPECT_TRUE(got.forward_completed);

  // The eighth service over real sockets: one CS grant on an ME world.
  const int kMe = 3;
  net::SocketRuntime me_rt(kMe, {.seed = 809});
  for (int p = 0; p < kMe; ++p)
    me_rt.add_process(
        std::make_unique<svc::ServiceHost>(me_config(p, kMe)));
  bool granted = false;
  const bool cs_ok = run_cs_grant(me_rt, &granted);
  me_rt.shutdown();
  EXPECT_TRUE(cs_ok);
  EXPECT_TRUE(granted);

  const auto stats = srt.wire_stats();
  EXPECT_GT(stats.datagrams_sent, 0u);
  EXPECT_GT(stats.delivered, 0u);
  EXPECT_EQ(stats.by_result[static_cast<int>(
                net::WireFrameResult::BadChecksum)],
            0u);  // loopback corrupts nothing
  EXPECT_EQ(stats.bad_edge, 0u);
}

TEST(SocketLoopback, SessionOutcomesMatchTheSimulator) {
  // The acceptance bar: the same client program, the same hosts, once on
  // the deterministic Simulator and once over real UDP — identical
  // SessionResults on a lossless loopback.
  const sim::Topology topo = sim::Topology::complete(4);
  const auto routes = std::make_shared<const sim::RoutingTable>(topo);

  sim::Simulator sim(topo, 1, 515);
  for (int p = 0; p < topo.process_count(); ++p)
    sim.add_process(std::make_unique<svc::ServiceHost>(
        all_services_config(topo, p, routes)));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(515));
  SessionOutcomes sim_out;
  std::string why;
  ASSERT_TRUE(run_every_service(sim, topo, &sim_out, &why)) << why;

  net::SocketRuntime srt(topo, {.seed = 515});
  for (int p = 0; p < topo.process_count(); ++p)
    srt.add_process(std::make_unique<svc::ServiceHost>(
        all_services_config(topo, p, routes)));
  SessionOutcomes net_out;
  const bool ok = run_every_service(srt, topo, &net_out, &why);
  srt.shutdown();
  ASSERT_TRUE(ok) << why;

  EXPECT_EQ(net_out.pif_value, sim_out.pif_value);
  EXPECT_EQ(net_out.min_ids, sim_out.min_ids);
  EXPECT_EQ(net_out.ranks, sim_out.ranks);
  EXPECT_EQ(net_out.reset_completed, sim_out.reset_completed);
  // The snapshot digest folds fixed local states by channel index — the
  // same reading regardless of which backend carried the wave.
  EXPECT_EQ(net_out.snapshot_value, sim_out.snapshot_value);
  EXPECT_EQ(net_out.termination_claimed, sim_out.termination_claimed);
  EXPECT_EQ(net_out.forward_completed, sim_out.forward_completed);
  EXPECT_EQ(net_out.forward_ack, sim_out.forward_ack);

  // And the ME/CriticalSection stack, in its own world on both backends.
  const int kMe = 3;
  sim::Simulator me_sim(kMe, 1, 516);
  for (int p = 0; p < kMe; ++p)
    me_sim.add_process(
        std::make_unique<svc::ServiceHost>(me_config(p, kMe)));
  me_sim.set_scheduler(std::make_unique<sim::RandomScheduler>(516));
  bool sim_granted = false;
  ASSERT_TRUE(run_cs_grant(me_sim, &sim_granted));

  net::SocketRuntime me_rt(kMe, {.seed = 516});
  for (int p = 0; p < kMe; ++p)
    me_rt.add_process(
        std::make_unique<svc::ServiceHost>(me_config(p, kMe)));
  bool net_granted = false;
  const bool cs_ok = run_cs_grant(me_rt, &net_granted);
  me_rt.shutdown();
  ASSERT_TRUE(cs_ok);
  EXPECT_EQ(net_granted, sim_granted);
  EXPECT_TRUE(net_granted);
}

TEST(SocketLoopback, CorruptDatagramsAreCountedAndDropped) {
  const int n = 3;
  net::SocketRuntime srt(n, {.seed = 77});
  for (int p = 0; p < n; ++p)
    srt.add_process(std::make_unique<core::PifProcess>(n - 1, 1));
  srt.start();

  // A storm of hostile datagrams: pure noise (dies at the magic), plus
  // genuine frames with one byte corrupted in flight (dies at the
  // checksum) — all while a live broadcast crosses the same sockets.
  Rng rng(77);
  const int kNoise = 100, kCorrupt = 100;
  for (int i = 0; i < kNoise; ++i) {
    std::array<std::uint8_t, 40> noise;
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.below(256));
    noise[0] = 0x00;  // never the magic
    ASSERT_TRUE(srt.inject_datagram(static_cast<int>(rng.below(n)),
                                    noise.data(), noise.size()));
  }
  {
    ScopedStringPool scope(srt.string_pool());
    for (int i = 0; i < kCorrupt; ++i) {
      auto frame = net::encode_frame(
          static_cast<sim::EdgeId>(rng.below(srt.topology().edge_count())),
          Message::random(rng, 6));
      frame.back() ^= 0x04;
      ASSERT_TRUE(srt.inject_datagram(static_cast<int>(rng.below(n)),
                                      frame.data(), frame.size()));
    }
  }

  srt.with_process<core::PifProcess>(0, [](core::PifProcess& p) {
    p.pif().request(Value::text("through the noise"));
    return 0;
  });
  const bool done = srt.run(
      [&srt] {
        return srt.with_process<core::PifProcess>(
            0, [](core::PifProcess& p) { return p.pif().done(); });
      },
      30'000ms);
  // Give the drain loops a moment to swallow any remaining hostile
  // backlog, then stop.
  std::this_thread::sleep_for(50ms);
  srt.shutdown();
  ASSERT_TRUE(done);

  const auto stats = srt.wire_stats();
  const auto bad_magic =
      stats.by_result[static_cast<int>(net::WireFrameResult::BadMagic)];
  const auto bad_sum =
      stats.by_result[static_cast<int>(net::WireFrameResult::BadChecksum)];
  EXPECT_GE(bad_magic, static_cast<std::uint64_t>(kNoise) / 2);
  EXPECT_GE(bad_sum, static_cast<std::uint64_t>(kCorrupt) / 2);
  EXPECT_EQ(stats.rejected_frames,
            stats.datagrams_received - stats.by_result[static_cast<int>(
                                          net::WireFrameResult::Ok)]);
}

TEST(SocketLoopback, RecoversFromInjectedDatagramLoss) {
  // ≥15% of accepted datagrams are discarded before dispatch; the
  // flag-counting handshake must still finish every session. The seed is
  // the repro line.
  const std::uint64_t kSeed = 31337;
  const int n = 3;
  const sim::Topology topo = sim::Topology::complete(n);
  net::SocketRuntime srt(topo, {.seed = kSeed, .loss_rate = 0.15});
  for (int p = 0; p < n; ++p) {
    svc::HostConfig cfg;
    cfg.id = 10 + p;
    cfg.degree = topo.degree(p);
    cfg.channel_capacity = 1;
    cfg.with_election = true;
    srt.add_process(std::make_unique<svc::ServiceHost>(cfg));
  }
  svc::Client client(srt);
  std::vector<svc::Session> sessions;
  for (int p = 0; p < n; ++p) {
    sessions.push_back(client.submit(
        p, svc::PifBroadcast{Value::integer(9000 + p)}));
    sessions.push_back(client.submit(p, svc::Election{}));
  }
  const bool done = client.run_until(sessions, {.timeout = 60'000ms});
  srt.shutdown();
  const auto stats = srt.wire_stats();
  ASSERT_TRUE(done) << "repro: socket loss run, seed=" << kSeed
                    << " loss_rate=0.15 n=" << n;
  EXPECT_GT(stats.loss_drops, 0u) << "the loss filter never fired";
  for (const auto& s : sessions)
    EXPECT_TRUE(client.result(s).completed)
        << svc::service_name(s.key.service) << " repro: seed=" << kSeed;
}

TEST(SocketLoopback, PifSessionsDoNotFloodTheWire) {
  // Each activation drains its socket, so a retransmission is read before
  // the next one piles up behind it: about 40 datagrams carry a PIF
  // session on complete(3). A receive loop that reads fewer frames per
  // activation than a tick and its echoes send fills the kernel buffer with
  // stale frames and needs about 3,000.
  const int n = 3;
  net::SocketRuntime srt(n, {.seed = 606});
  for (int p = 0; p < n; ++p)
    srt.add_process(std::make_unique<core::PifProcess>(n - 1, 1));
  svc::Client client(srt);
  const int kRounds = 10;
  int sessions = 0;
  for (int r = 0; r < kRounds; ++r) {
    std::vector<svc::Session> round;
    for (int p = 0; p < n; ++p)
      round.push_back(
          client.submit(p, svc::PifBroadcast{Value::integer(r * n + p)}));
    ASSERT_TRUE(client.run_until(round, {.timeout = 30'000ms}))
        << "round " << r;
    for (const auto& s : round) {
      EXPECT_TRUE(client.result(s).completed);
      client.release(s);
    }
    sessions += n;
  }
  srt.shutdown();
  const double per_session =
      static_cast<double>(srt.wire_stats().datagrams_sent) / sessions;
  EXPECT_LT(per_session, 250.0) << "datagrams per PIF session";
}

TEST(SocketLoopback, PifCompletesWhileNodeZeroIsFlooded) {
  // A side thread floods node 0's in-edges with well-formed frames of
  // baseline traffic the PIF host ignores, for as long as the request
  // runs. Draining must not cost node 0 its ticks: its own retransmissions
  // still finish the broadcast. One sender cannot outpace recv on
  // loopback, so the per-activation bound itself is pinned by
  // LiveRuntimeLoop.AFloodCannotStarveTheTick (test_runtime.cpp), whose
  // transport never runs dry.
  const int n = 3;
  net::SocketRuntime srt(n, {.seed = 707});
  for (int p = 0; p < n; ++p)
    srt.add_process(std::make_unique<core::PifProcess>(n - 1, 1));
  srt.start();

  std::atomic<bool> flooding{true};
  std::atomic<std::uint64_t> injected{0};
  std::thread flooder([&srt, &flooding, &injected, n] {
    ScopedStringPool scope(srt.string_pool());
    const sim::Topology& topo = srt.topology();
    for (std::int64_t i = 0; flooding.load(); ++i) {
      const sim::EdgeId e = topo.in_edge(0, static_cast<int>(i % (n - 1)));
      if (srt.inject(e, Message::naive_brd(Value::integer(i))))
        injected.fetch_add(1);
    }
  });

  srt.with_process<core::PifProcess>(0, [](core::PifProcess& p) {
    p.pif().request(Value::text("under the flood"));
    return 0;
  });
  const bool done = srt.run(
      [&srt] {
        return srt.with_process<core::PifProcess>(
            0, [](core::PifProcess& p) { return p.pif().done(); });
      },
      30'000ms);
  flooding.store(false);
  flooder.join();
  srt.shutdown();
  EXPECT_TRUE(done) << "the flood starved node 0";
  EXPECT_GT(injected.load(), 0u);
  EXPECT_EQ(srt.wire_stats().rejected_frames, 0u);  // garbage, but framed
}

// ---------------------------------------------------------------------------
// The fault engine against real sockets.
// ---------------------------------------------------------------------------

TEST(SocketFault, InjectorStormCeasesAndFreshSessionsComplete) {
  const int n = 4;
  const sim::Topology topo = sim::Topology::complete(n);
  net::SocketRuntime srt(topo, {.seed = 47});
  for (int p = 0; p < n; ++p)
    srt.add_process(std::make_unique<core::PifProcess>(n - 1, 1));

  fault::FaultPlanSpec fs;
  fs.seed = 47;
  fs.horizon = 400;
  fs.min_len = 20;
  fs.max_len = 80;
  fs.crash_windows = 2;
  fs.garbage_windows = 3;
  fs.loss_windows = 3;
  fs.duplicate_windows = 2;
  fs.rate = 0.4;
  const fault::FaultPlan plan = fault::FaultPlan::compile(fs, topo);
  ASSERT_FALSE(plan.empty());

  fault::RuntimeInjectorOptions io;
  io.step_duration = std::chrono::microseconds(200);
  io.poll_interval = std::chrono::milliseconds(1);
  fault::RuntimeInjector inj(plan, srt, io);
  srt.start();
  inj.start();

  // Ride out the storm, then the snap-stabilization contract: a fresh
  // request completes once the fault has ceased.
  std::atomic<bool> requested{false};
  const bool ok = srt.run(
      [&srt, &inj, &requested] {
        if (!inj.done()) return false;  // the fault still rages
        return srt.with_process<core::PifProcess>(
            0, [&requested](core::PifProcess& p) {
              if (!requested.load()) {
                if (!p.pif().done()) return false;
                p.pif().request(Value::text("post-storm"));
                requested.store(true);
                return false;
              }
              return p.pif().done();
            });
      },
      30'000ms);
  inj.stop();
  srt.shutdown();
  EXPECT_TRUE(ok) << "post-storm request did not complete; "
                  << plan.repro_line();
  EXPECT_GT(inj.counters().crashes, 0u) << plan.repro_line();
  EXPECT_GT(inj.counters().garbage_bursts, 0u) << plan.repro_line();
}

// ---------------------------------------------------------------------------
// Multi-process mode: fixed ports, forked child, real SIGKILL.
// ---------------------------------------------------------------------------

std::vector<std::uint16_t> pick_free_ports(std::size_t k) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < k; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0)
      ADD_FAILURE() << "bind failed picking a free port";
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ports.push_back(ntohs(addr.sin_port));
    fds.push_back(fd);
  }
  for (const int fd : fds) ::close(fd);  // freed only once all are drawn
  return ports;
}

// fork + execv, never fork alone: the parent is multithreaded by the time
// these tests run, so the child re-executes this binary from scratch.
pid_t spawn_child_host(const std::vector<std::uint16_t>& ports, int self,
                       int seconds) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<std::string> args = {"test_socket", "--socket-child"};
  for (const std::uint16_t p : ports) args.push_back(std::to_string(p));
  args.push_back(std::to_string(self));
  args.push_back(std::to_string(seconds));
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv("/proc/self/exe", argv.data());
  ::_exit(127);  // exec failed
}

TEST(SocketMultiProcess, SigkillStallsAndRespawnRecovers) {
  const auto ports = pick_free_ports(2);
  net::SocketRuntimeOptions opt;
  opt.seed = 2026;
  opt.ports = ports;
  opt.local_nodes = {0};
  net::SocketRuntime srt(2, opt);
  srt.add_process(std::make_unique<core::PifProcess>(1, 1));
  srt.start();

  const auto broadcast_done = [&srt](const char* text, int timeout_ms) {
    srt.with_process<core::PifProcess>(0, [text](core::PifProcess& p) {
      p.pif().request(Value::text(text));
      return 0;
    });
    return srt.run(
        [&srt] {
          return srt.with_process<core::PifProcess>(
              0, [](core::PifProcess& p) { return p.pif().done(); });
        },
        std::chrono::milliseconds(timeout_ms));
  };

  // Alive peer: the handshake completes across the process boundary.
  pid_t child = spawn_child_host(ports, /*self=*/1, /*seconds=*/30);
  ASSERT_GT(child, 0);
  ASSERT_TRUE(broadcast_done("two processes", 20'000));

  // Dead peer: SIGKILL is the real thing — no destructors, no goodbye.
  // The socket dies with the process and the handshake must stall.
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  EXPECT_FALSE(broadcast_done("into the void", 1'500));

  // Respawned peer: a fresh process rebinds the same port and the stalled
  // protocol — still retransmitting, as the paper demands — finishes.
  child = spawn_child_host(ports, /*self=*/1, /*seconds=*/30);
  ASSERT_GT(child, 0);
  const bool recovered = srt.run(
      [&srt] {
        return srt.with_process<core::PifProcess>(
            0, [](core::PifProcess& p) { return p.pif().done(); });
      },
      20'000ms);
  EXPECT_TRUE(recovered);

  ::kill(child, SIGKILL);
  ::waitpid(child, &status, 0);
  srt.shutdown();
}

TEST(SocketMultiProcess, InjectorDeliversTheSigkill) {
  // The fault engine's process-crash path: a CrashRestart window naming a
  // remote node delivers a genuine SIGKILL to its registered pid.
  const sim::Topology topo = sim::Topology::complete(2);
  fault::FaultPlanSpec fs;
  fs.horizon = 100;
  fs.min_len = 20;
  fs.max_len = 40;
  fs.crash_windows = 1;
  fault::FaultPlan plan;
  for (std::uint64_t seed = 1; seed < 500; ++seed) {
    fs.seed = seed;
    plan = fault::FaultPlan::compile(fs, topo);
    if (!plan.empty() && plan.windows()[0].process == 1) break;
  }
  ASSERT_FALSE(plan.empty());
  ASSERT_EQ(plan.windows()[0].process, 1) << plan.repro_line();

  const auto ports = pick_free_ports(2);
  net::SocketRuntimeOptions opt;
  opt.seed = 7;
  opt.ports = ports;
  opt.local_nodes = {0};
  net::SocketRuntime srt(2, opt);
  srt.add_process(std::make_unique<core::PifProcess>(1, 1));
  srt.start();

  const pid_t child = spawn_child_host(ports, /*self=*/1, /*seconds=*/30);
  ASSERT_GT(child, 0);

  fault::RuntimeInjectorOptions io;
  io.step_duration = std::chrono::microseconds(500);
  io.poll_interval = std::chrono::milliseconds(1);
  fault::RuntimeInjector inj(plan, srt, io);
  inj.set_node_pid(1, child);
  inj.start();
  while (!inj.done()) std::this_thread::sleep_for(5ms);
  inj.stop();

  EXPECT_EQ(inj.counters().process_kills, 1u) << plan.repro_line();
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << plan.repro_line();
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  srt.shutdown();
}

}  // namespace

// The --socket-child runner: one bare SocketRuntime hosting one node of a
// two-node world on fixed ports, serving until its wall budget expires.
int run_socket_child(int argc, char** argv) {
  if (argc < 6) return 2;
  net::SocketRuntimeOptions opt;
  opt.seed = 9090;
  opt.ports = {static_cast<std::uint16_t>(std::atoi(argv[2])),
               static_cast<std::uint16_t>(std::atoi(argv[3]))};
  opt.local_nodes = {std::atoi(argv[4])};
  const int seconds = std::atoi(argv[5]);
  net::SocketRuntime rt(2, opt);
  rt.add_process(std::make_unique<core::PifProcess>(1, 1));
  rt.start();
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  rt.shutdown();
  return 0;
}

}  // namespace snapstab

int main(int argc, char** argv) {
  if (argc > 1 && std::string_view(argv[1]) == "--socket-child")
    return snapstab::run_socket_child(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
