#include "rounds.hpp"

#include <array>
#include <cstdio>
#include <sstream>
#include <string>

#include "net/wire.hpp"

namespace snapstab::perf {

namespace {

using namespace std::chrono_literals;

struct ProcUdpRow {
  std::uint64_t rx_queue = 0;  // bytes queued for the socket's reader
  std::uint64_t drops = 0;     // datagrams the kernel dropped for it
};

// Reads the rx_queue and drops columns of /proc/net/udp for each loopback
// port; ports without a row read as zero.
std::vector<ProcUdpRow> read_proc_udp(const std::vector<std::uint16_t>& ports) {
  std::vector<ProcUdpRow> out(ports.size());
  std::FILE* f = std::fopen("/proc/net/udp", "r");
  if (f == nullptr) return out;
  char line[512];
  bool header = true;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (header) {
      header = false;
      continue;
    }
    // sl local rem st tx:rx tr:when retrnsmt uid timeout inode ref ptr drops
    std::istringstream in(line);
    std::vector<std::string> col;
    for (std::string tok; in >> tok;) col.push_back(tok);
    if (col.size() < 13 || col[1].rfind("0100007F:", 0) != 0) continue;
    const auto port =
        static_cast<std::uint16_t>(std::stoul(col[1].substr(9), nullptr, 16));
    const std::size_t colon = col[4].find(':');
    if (colon == std::string::npos) continue;
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (ports[i] != port) continue;
      out[i].rx_queue = std::stoull(col[4].substr(colon + 1), nullptr, 16);
      out[i].drops = std::stoull(col[12]);
    }
  }
  std::fclose(f);
  return out;
}

std::uint64_t total_drops(const std::vector<ProcUdpRow>& rows) {
  std::uint64_t d = 0;
  for (const ProcUdpRow& r : rows) d += r.drops;
  return d;
}

net::SocketRuntime::WireStats wire_delta(
    const net::SocketRuntime::WireStats& a,
    const net::SocketRuntime::WireStats& b) {
  net::SocketRuntime::WireStats d;
  d.datagrams_sent = b.datagrams_sent - a.datagrams_sent;
  d.datagrams_received = b.datagrams_received - a.datagrams_received;
  d.delivered = b.delivered - a.delivered;
  d.rejected_frames = b.rejected_frames - a.rejected_frames;
  for (std::size_t i = 0; i < d.by_result.size(); ++i)
    d.by_result[i] = b.by_result[i] - a.by_result[i];
  d.bad_edge = b.bad_edge - a.bad_edge;
  d.loss_drops = b.loss_drops - a.loss_drops;
  d.filter_drops = b.filter_drops - a.filter_drops;
  d.filter_duplicates = b.filter_duplicates - a.filter_duplicates;
  d.down_drops = b.down_drops - a.down_drops;
  return d;
}

}  // namespace

RoundScript::RoundScript(BackendSpec spec, bool fresh_per_round,
                         int inject_per_round)
    : spec_(std::move(spec)),
      fresh_per_round_(fresh_per_round),
      inject_per_round_(inject_per_round),
      garbage_rng_(spec_.seed ^ 0x6A7BA6Eull) {
  const sim::Topology t = make_topology(spec_);
  for (int p = 0; p < spec_.n; ++p) answers_.push_back(election_answer(t, p));
}

void RoundScript::build(Tracer& tracer) {
  backend_.reset();  // joins the previous runtime's threads, untimed
  const std::uint64_t t0 = now_ns();
  backend_ = make_backend(spec_, activations_);
  tracer.record(SpanKind::Construct, t0, now_ns());
  injected_total_ = 0;
}

std::vector<double> RoundScript::setup(int reps, int warmup_rounds,
                                       Tracer& tracer) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    backend_.reset();
    next_round_ = 0;
    broken_ = false;
    garbage_rng_ = Rng(spec_.seed ^ 0x6A7BA6Eull);
    const std::uint64_t t0 = now_ns();
    if (!fresh_per_round_) build(tracer);
    for (int k = 0; k < warmup_rounds && !broken_; ++k)
      round(nullptr, false, tracer);
    seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return seconds;
}

void RoundScript::inject_garbage() {
  net::SocketRuntime& srt = *backend_->socket;
  const auto n = static_cast<std::uint64_t>(spec_.n);
  const auto edges = static_cast<std::uint64_t>(srt.topology().edge_count());
  for (int i = 0; i < inject_per_round_ / 2; ++i) {
    std::array<std::uint8_t, 64> noise{};
    for (auto& byte : noise)
      byte = static_cast<std::uint8_t>(garbage_rng_.below(256));
    noise[0] = 0x00;  // never the wire magic: rejected as bad-magic
    if (srt.inject_datagram(static_cast<int>(garbage_rng_.below(n)),
                            noise.data(), noise.size()))
      ++injected_total_;
    std::vector<std::uint8_t> frame = net::encode_frame(
        static_cast<sim::EdgeId>(garbage_rng_.below(edges)),
        Message::random(garbage_rng_, 6), srt.string_pool());
    // The middle byte lies in the checksum or the payload, so the frame
    // is always rejected as bad-checksum.
    frame[frame.size() / 2] ^= 0x10;
    if (srt.inject_datagram(static_cast<int>(garbage_rng_.below(n)),
                            frame.data(), frame.size()))
      ++injected_total_;
  }
}

void RoundScript::round(RoundsStats* stats, bool record_steps,
                        Tracer& tracer) {
  const bool traced = stats != nullptr && tracer.on();
  const std::uint64_t r = next_round_++;
  const std::uint64_t round_begin = now_ns();
  std::uint64_t child_ns = 0;
  if (fresh_per_round_) {
    const std::uint64_t t0 = now_ns();
    build(tracer);
    child_ns += now_ns() - t0;
  }
  Backend& b = *backend_;
  svc::Client& client = *b.client;
  const int n = spec_.n;
  const std::uint64_t steps_before = b.steps();

  slots_.assign(static_cast<std::size_t>(n) + 1, Slot{});
  sessions_.clear();
  for (int i = 0; i <= n; ++i) {
    Slot& slot = slots_[static_cast<std::size_t>(i)];
    const bool election = i == n;
    slot.origin = election ? static_cast<int>(r % static_cast<std::uint64_t>(n))
                           : i;
    slot.payload = election ? -1 : static_cast<std::int64_t>(r) * n + i;
    const ElectionAnswer answer = answers_[static_cast<std::size_t>(slot.origin)];
    auto on_done = [&slot, &b, answer](const svc::SessionKey&,
                                       const svc::SessionResult& res) {
      slot.done_ns = now_ns();
      slot.done_steps = b.steps();
      slot.done = true;
      slot.ok = res.completed &&
                (slot.payload < 0
                     ? res.min_id == answer.min_id && res.rank == answer.rank
                     : res.value == Value::integer(slot.payload));
    };
    slot.submit_steps = b.steps();
    slot.submit_ns = now_ns();
    sessions_.push_back(
        election ? client.submit(slot.origin, svc::Election{}, on_done)
                 : client.submit(slot.origin,
                                 svc::PifBroadcast{Value::integer(slot.payload)},
                                 on_done));
    const std::uint64_t t1 = now_ns();
    if (traced) tracer.record(SpanKind::Submit, slot.submit_ns, t1);
    child_ns += t1 - slot.submit_ns;
  }
  if (inject_per_round_ > 0) inject_garbage();

  svc::AwaitOptions opts;
  opts.timeout = 20'000ms;
  const std::uint64_t a0 = now_ns();
  const bool all_done = client.await_all(sessions_, opts) ==
                        svc::AwaitResult::Done;
  const std::uint64_t a1 = now_ns();
  if (traced) tracer.record(SpanKind::Await, a0, a1);
  child_ns += a1 - a0;
  // A stuck round may still complete later on a persistent runtime, and its
  // callbacks may be writing the slots right now: count the round as failed
  // without reading them, and run no further round.
  if (!all_done) broken_ = true;

  if (stats != nullptr) stats->sessions += slots_.size();
  if (stats != nullptr && all_done) {
    std::uint64_t last_done = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& slot = slots_[i];
      if (sessions_[i].coalesced) ++stats->coalesced;
      if (!slot.done) continue;  // no callback: not ok, so it counts as failed
      if (slot.ok) ++stats->ok;
      stats->latency_ns.record(slot.done_ns - slot.submit_ns);
      if (record_steps)
        stats->latency_steps.record(slot.done_steps - slot.submit_steps);
      if (slot.done_ns > last_done) last_done = slot.done_ns;
      if (traced)
        tracer.record(SpanKind::Session, slot.submit_ns, slot.done_ns,
                      slot.origin + 1, Tracer::session_id(sessions_[i].key));
    }
    stats->overshoot_ns.record(a1 > last_done ? a1 - last_done : 0);
    stats->await_ns += a1 - a0;
    stats->steps += b.steps() - steps_before;
  }

  if (all_done) {
    for (const svc::Session& s : sessions_) {
      const std::uint64_t t0 = now_ns();
      client.release(s);
      const std::uint64_t t1 = now_ns();
      if (traced) tracer.record(SpanKind::Release, t0, t1);
      child_ns += t1 - t0;
    }
  }
  // The driver is not a trace consumer: keep the Simulator's log bounded,
  // as load::run_sharded does, so memory does not grow with run length.
  if (b.sim != nullptr) {
    if (stats != nullptr) stats->observations += b.sim->log().size();
    b.sim->log().clear();
  }
  const std::uint64_t round_end = now_ns();
  if (traced) {
    tracer.record(SpanKind::Round, round_begin, round_end);
    tracer.round_self().record(round_end - round_begin - child_ns);
    sample_live_counters(*stats);
  }
  if (stats != nullptr) ++stats->rounds;
}

void RoundScript::sample_live_counters(RoundsStats& stats) {
  if (runtime::ThreadRuntime* rt = backend_->thread.get()) {
    const sim::Topology& t = rt->topology();
    for (sim::EdgeId e = 0; e < t.edge_count(); ++e) {
      const runtime::Mailbox::Stats s =
          rt->mailbox(t.edge_src(e), t.edge_dst(e)).stats();
      stats.mailbox_pushed += s.pushed;
      stats.mailbox_lost_on_full += s.lost_on_full;
    }
    stats.live_observations += rt->observations().size();
  }
  if (net::SocketRuntime* srt = backend_->socket.get()) {
    std::vector<std::uint16_t> ports;
    for (int p = 0; p < srt->process_count(); ++p)
      ports.push_back(srt->port_of(p));
    for (const ProcUdpRow& row : read_proc_udp(ports))
      stats.rx_queue_bytes.record(row.rx_queue);
  }
}

RoundsStats RoundScript::run(double seconds, std::uint64_t max_rounds,
                             std::uint64_t step_rounds, Tracer& tracer) {
  RoundsStats st;
  net::SocketRuntime* srt =
      backend_ != nullptr ? backend_->socket.get() : nullptr;
  std::vector<std::uint16_t> ports;
  if (srt != nullptr)
    for (int p = 0; p < srt->process_count(); ++p)
      ports.push_back(srt->port_of(p));
  const bool traced = tracer.on();
  const net::SocketRuntime::WireStats wire0 =
      srt != nullptr ? srt->wire_stats() : net::SocketRuntime::WireStats{};
  const std::uint64_t injected0 = injected_total_;
  const std::uint64_t drops0 = traced ? total_drops(read_proc_udp(ports)) : 0;
  const std::uint64_t obs0 =
      traced && srt != nullptr ? srt->observations().size() : 0;
  const Usage p0 = process_usage();
  const Usage d0 = thread_usage();
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  while (st.rounds < max_rounds && !broken_) {
    round(&st, st.rounds < step_rounds, tracer);
    if (now_ns() >= deadline) break;
  }
  st.wall_ns = now_ns() - t0;
  st.process = usage_delta(p0, process_usage());
  st.driver = usage_delta(d0, thread_usage());
  if (srt != nullptr) {
    st.wire = wire_delta(wire0, srt->wire_stats());
    st.injected = injected_total_ - injected0;
    if (traced) {
      st.kernel_drops = total_drops(read_proc_udp(ports)) - drops0;
      st.live_observations = srt->observations().size() - obs0;
    }
  }
  return st;
}

}  // namespace snapstab::perf
