// exp_socket — the real-wire loopback ladder.
//
// Every other experiment measures the protocol against a simulated or
// in-process channel; this one measures it against the kernel. A
// SocketRuntime hosts n ServiceHosts on loopback UDP ports and the ladder
// sweeps n × injected datagram loss: each cell submits rounds of mixed
// sessions (a PIF broadcast per node plus a full election) and measures
// sessions-per-second and per-round completion latency while the
// runtime's receive filter discards the configured fraction of accepted
// datagrams before dispatch.
//
// Verdicts:
//   * all-recovered — every session of every cell completed, INCLUDING the
//     cells running under >= 10% injected datagram loss (the paper's lossy
//     unbounded channel, realized by a network that actually drops);
//   * hostile traffic died in frame validation — a garbage stanza fires
//     noise and corrupted frames at a live cell and requires every one
//     rejected (counted, never delivered, never a crash);
//   * the wire was not flooded — every cell sent at most
//     kMaxDatagramsPerSession datagrams per session. Node threads drain
//     their sockets each activation; a receive loop that leaves a backlog
//     behind fills the kernel buffer with stale retransmissions and sent
//     2,600–3,000 per session in these cells.
//
// Wall-clock, not replayable bit-for-bit; each cell's seed pins the loss
// filter's draw sequence and is printed with any failure.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp_common.hpp"
#include "net/socket_runtime.hpp"
#include "net/wire.hpp"
#include "svc/client.hpp"
#include "svc/host.hpp"

namespace snapstab::bench {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

// The flood verdict's bound: with drained sockets the cells carry 30–90
// datagrams per session.
constexpr double kMaxDatagramsPerSession = 250.0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

svc::HostConfig cell_config(int p, int n) {
  svc::HostConfig cfg;
  cfg.id = 100 - p;
  cfg.degree = n - 1;
  cfg.channel_capacity = 1;
  cfg.with_election = true;
  return cfg;
}

struct Cell {
  int n = 0;
  double loss = 0.0;
  int rounds = 0;
  int sessions = 0;
  int completed = 0;
  double wall_ms = 0.0;
  double round_max_ms = 0.0;   // slowest round: recovery latency under loss
  std::uint64_t datagrams = 0;
  std::uint64_t loss_drops = 0;
  std::uint64_t seed = 0;

  double datagrams_per_session() const {
    return sessions > 0 ? static_cast<double>(datagrams) / sessions : 0.0;
  }
};

Cell run_cell(int n, double loss, int rounds, std::uint64_t seed) {
  Cell cell;
  cell.n = n;
  cell.loss = loss;
  cell.rounds = rounds;
  cell.seed = seed;

  net::SocketRuntime srt(n, {.seed = seed, .loss_rate = loss});
  for (int p = 0; p < n; ++p)
    srt.add_process(std::make_unique<svc::ServiceHost>(cell_config(p, n)));
  svc::Client client(srt);

  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    std::vector<svc::Session> sessions;
    for (int p = 0; p < n; ++p) {
      sessions.push_back(client.submit(
          p, svc::PifBroadcast{Value::integer(r * 1000 + p)}));
      sessions.push_back(client.submit(p, svc::Election{}));
    }
    const auto r0 = Clock::now();
    const bool done = client.await_all(sessions, {.timeout = 60'000ms}) ==
                      svc::AwaitResult::Done;
    cell.round_max_ms =
        std::max(cell.round_max_ms, ms_between(r0, Clock::now()));
    cell.sessions += static_cast<int>(sessions.size());
    if (done)
      cell.completed += static_cast<int>(sessions.size());
    else
      for (const auto& s : sessions)
        if (client.done(s)) ++cell.completed;
    for (const auto& s : sessions) client.release(s);
  }
  cell.wall_ms = ms_between(t0, Clock::now());
  srt.shutdown();
  const auto stats = srt.wire_stats();
  cell.datagrams = stats.datagrams_sent;
  cell.loss_drops = stats.loss_drops;
  return cell;
}

// Hostile-traffic stanza: noise and corrupted frames against a live cell.
struct GarbageStats {
  int injected = 0;
  std::uint64_t rejected = 0;
  bool session_survived = false;
};

GarbageStats run_garbage(int n, int bursts, std::uint64_t seed) {
  GarbageStats g;
  net::SocketRuntime srt(n, {.seed = seed});
  for (int p = 0; p < n; ++p)
    srt.add_process(std::make_unique<svc::ServiceHost>(cell_config(p, n)));
  srt.start();
  Rng rng(seed ^ 0xBAD);
  {
    ScopedStringPool scope(srt.string_pool());
    for (int i = 0; i < bursts; ++i) {
      std::array<std::uint8_t, 64> noise;
      for (auto& b : noise) b = static_cast<std::uint8_t>(rng.below(256));
      noise[0] = 0x00;  // never the magic
      srt.inject_datagram(static_cast<int>(rng.below(n)), noise.data(),
                          noise.size());
      auto frame = net::encode_frame(
          static_cast<sim::EdgeId>(rng.below(srt.topology().edge_count())),
          Message::random(rng, 6));
      frame[frame.size() / 2] ^= 0x10;  // corrupted in flight
      srt.inject_datagram(static_cast<int>(rng.below(n)), frame.data(),
                          frame.size());
      g.injected += 2;
    }
  }
  svc::Client client(srt);
  const auto s = client.submit(0, svc::PifBroadcast{Value::text("alive")});
  g.session_survived = client.await_all({s}, {.timeout = 30'000ms}) ==
                       svc::AwaitResult::Done;
  // Let the drain swallow the hostile backlog.
  srt.run(
      [&srt, &g] {
        return srt.wire_stats().rejected_frames >=
               static_cast<std::uint64_t>(g.injected);
      },
      10'000ms);
  srt.shutdown();
  g.rejected = srt.wire_stats().rejected_frames;
  return g;
}

}  // namespace
}  // namespace snapstab::bench

int main(int argc, char** argv) {
  using namespace snapstab;
  using namespace snapstab::bench;
  CliArgs args(argc, argv, {"smoke", "rounds", "seed", "json"});
  const bool smoke = args.get_bool("smoke");
  const int rounds = static_cast<int>(args.get_int("rounds", smoke ? 2 : 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 808));

  banner("E19: exp_socket", "PAPER.md §2 (the message-passing model)",
         "Real-wire loopback ladder: the full service stack over UDP\n"
         "sockets, n x injected datagram loss, sessions/sec and recovery\n"
         "latency; a garbage stanza proves hostile datagrams die in frame\n"
         "validation.");

  const std::vector<int> ns = smoke ? std::vector<int>{3}
                                    : std::vector<int>{3, 5};
  const std::vector<double> losses =
      smoke ? std::vector<double>{0.0, 0.10}
            : std::vector<double>{0.0, 0.10, 0.20};

  std::vector<Cell> cells;
  for (const int n : ns)
    for (const double loss : losses)
      cells.push_back(run_cell(
          n, loss, rounds,
          seed + static_cast<std::uint64_t>(cells.size()) * 101));

  TextTable t({"n", "loss", "sessions", "completed", "sess/s",
               "slowest round (ms)", "datagrams", "dgrams/session",
               "loss drops"});
  bool all_recovered = true;
  bool lossy_cell_seen = false;
  bool wire_quiet = true;
  for (const Cell& c : cells) {
    if (c.completed != c.sessions) {
      all_recovered = false;
      std::printf("FAIL cell n=%d loss=%.2f: %d/%d sessions; repro seed=%llu\n",
                  c.n, c.loss, c.completed, c.sessions,
                  static_cast<unsigned long long>(c.seed));
    }
    if (c.datagrams_per_session() > kMaxDatagramsPerSession) {
      wire_quiet = false;
      std::printf("FAIL cell n=%d loss=%.2f: %.1f datagrams per session; "
                  "repro seed=%llu\n",
                  c.n, c.loss, c.datagrams_per_session(),
                  static_cast<unsigned long long>(c.seed));
    }
    if (c.loss >= 0.10) lossy_cell_seen = true;
    t.add_row({TextTable::cell(static_cast<std::int64_t>(c.n)),
               TextTable::cell(c.loss, 2),
               TextTable::cell(static_cast<std::int64_t>(c.sessions)),
               TextTable::cell(static_cast<std::int64_t>(c.completed)),
               TextTable::cell(c.wall_ms > 0.0
                                   ? 1000.0 * c.sessions / c.wall_ms
                                   : 0.0,
                               1),
               TextTable::cell(c.round_max_ms, 1),
               TextTable::cell(static_cast<std::int64_t>(c.datagrams)),
               TextTable::cell(c.datagrams_per_session(), 1),
               TextTable::cell(static_cast<std::int64_t>(c.loss_drops))});
  }
  t.print();

  const GarbageStats g = run_garbage(3, smoke ? 50 : 200, seed ^ 0xF00D);
  std::printf("\ngarbage stanza: %d hostile datagrams injected, %llu frames "
              "rejected, live session %s\n",
              g.injected, static_cast<unsigned long long>(g.rejected),
              g.session_survived ? "completed" : "DID NOT COMPLETE");

  const bool lossy_filter_fired = [&cells] {
    for (const Cell& c : cells)
      if (c.loss >= 0.10 && c.loss_drops == 0) return false;
    return true;
  }();
  const bool garbage_ok =
      g.session_survived &&
      g.rejected >= static_cast<std::uint64_t>(g.injected) / 2;

  verdict(all_recovered && lossy_cell_seen,
          "all recovered: every session completed in every cell, including "
          "under >= 10% injected datagram loss");
  verdict(lossy_filter_fired,
          "the loss was real: every lossy cell's filter discarded datagrams");
  verdict(garbage_ok,
          "hostile traffic died in frame validation while a live session "
          "completed");
  verdict(wire_quiet,
          "the wire was not flooded: <= 250 datagrams per session in every "
          "cell");

  BenchJson json("exp_socket");
  json.set_meta("mode", smoke ? "smoke" : "full");
  json.set("rounds", rounds);
  json.set("cells", static_cast<std::int64_t>(cells.size()));
  std::string cell_json = "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (i != 0) cell_json += ",";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"n\":%d,\"loss\":%.2f,\"sessions\":%d,"
                  "\"completed\":%d,\"sessions_per_s\":%.1f,"
                  "\"round_max_ms\":%.1f,\"datagrams\":%llu,"
                  "\"datagrams_per_session\":%.1f,"
                  "\"loss_drops\":%llu,\"seed\":%llu}",
                  c.n, c.loss, c.sessions, c.completed,
                  c.wall_ms > 0.0 ? 1000.0 * c.sessions / c.wall_ms : 0.0,
                  c.round_max_ms,
                  static_cast<unsigned long long>(c.datagrams),
                  c.datagrams_per_session(),
                  static_cast<unsigned long long>(c.loss_drops),
                  static_cast<unsigned long long>(c.seed));
    cell_json += buf;
  }
  cell_json += "]";
  json.set_raw("cells_detail", cell_json);
  json.set("garbage_injected", g.injected);
  json.set("garbage_rejected", g.rejected);
  json.set("garbage_session_survived", g.session_survived);
  json.set("all_recovered", all_recovered);
  json.set("lossy_filter_fired", lossy_filter_fired);
  json.set("garbage_ok", garbage_ok);
  json.set("wire_quiet", wire_quiet);
  if (!json.write_if_requested(args)) return 1;
  return (all_recovered && lossy_cell_seen && lossy_filter_fired &&
          garbage_ok && wire_quiet)
             ? 0
             : 1;
}
