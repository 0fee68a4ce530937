#include "probes.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>

#include "msg/codec.hpp"
#include "net/wire.hpp"
#include "runtime/mailbox.hpp"

namespace snapstab::perf {

namespace {

constexpr int kBatch = 64;

// The round script's sessions for round r, without completion callbacks.
void submit_round(svc::Client& client, int n, std::uint64_t r,
                  std::vector<svc::Session>& out) {
  for (int p = 0; p < n; ++p)
    out.push_back(client.submit(
        p, svc::PifBroadcast{Value::integer(static_cast<std::int64_t>(r) * n +
                                            p)}));
  out.push_back(client.submit(static_cast<int>(r % static_cast<std::uint64_t>(n)),
                              svc::Election{}));
}

std::vector<Message> sample_messages(const BackendSpec& shape) {
  std::atomic<std::uint64_t> unused{0};
  const std::unique_ptr<Backend> b = make_backend(shape, unused);
  b->sim->enable_recording();
  std::vector<svc::Session> sessions;
  for (std::uint64_t r = 0; r < 4; ++r) {
    submit_round(*b->client, shape.n, r, sessions);
    b->client->await_all(sessions);
  }
  std::vector<Message> out;
  const sim::Topology& t = b->sim->topology();
  for (sim::EdgeId e = 0; e < t.edge_count() && out.size() < 4096; ++e)
    for (const Message& m : b->sim->delivered(t.edge_src(e), t.edge_dst(e)))
      if (out.size() < 4096) out.push_back(m);
  return out;
}

void engine_probe(const BackendSpec& shape, std::uint64_t target_steps,
                  ProbeResult& out) {
  std::atomic<std::uint64_t> unused{0};
  const std::unique_ptr<Backend> b = make_backend(shape, unused);
  sim::Simulator& sim = *b->sim;
  svc::Client& client = *b->client;
  sim::RandomScheduler sched(shape.seed ^ 0xD4A3ull);
  std::uint64_t draws = 0, draw_ns = 0, pairs = 0, pair_ns = 0;
  std::vector<svc::Session> sessions;
  sim::Step step;
  for (std::uint64_t r = 0; pairs < target_steps; ++r) {
    submit_round(client, shape.n, r, sessions);
    sim.reconcile_enabled_index();
    // Draws alone, on the frozen configuration the round starts from.
    std::uint64_t t0 = now_ns();
    for (int k = 0; k < kBatch; ++k) sched.next_step(sim, step);
    draw_ns += now_ns() - t0;
    draws += kBatch;
    // Draw + execute until the round's sessions are all Done.
    for (bool more = true; more;) {
      int k = 0;
      bool quiescent = false;
      t0 = now_ns();
      for (; k < 4 * kBatch; ++k) {
        if (!sched.next_step(sim, step)) {
          quiescent = true;
          break;
        }
        sim.execute(step);
      }
      pair_ns += now_ns() - t0;
      pairs += static_cast<std::uint64_t>(k);
      more = !quiescent && !std::all_of(sessions.begin(), sessions.end(),
                                        [&](const svc::Session& s) {
                                          return client.done(s);
                                        });
    }
    for (const svc::Session& s : sessions) client.release(s);
    sessions.clear();
    sim.log().clear();
  }
  out.draw_ns = static_cast<double>(draw_ns) / static_cast<double>(draws);
  out.execute_ns =
      std::max(0.0, static_cast<double>(pair_ns) / static_cast<double>(pairs) -
                        out.draw_ns);
}

void codec_probe(const std::vector<Message>& sample, std::uint64_t calls,
                 ProbeResult& out) {
  StringPool& pool = current_string_pool();
  std::vector<std::vector<std::uint8_t>> bytes, frames;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    bytes.push_back(encode(sample[i], pool));
    frames.push_back(net::encode_frame(static_cast<sim::EdgeId>(i % 2),
                                       sample[i], pool));
    const std::optional<Message> m = decode(bytes.back(), pool);
    const net::DecodedFrame f = net::decode_frame(
        frames.back().data(), frames.back().size(), pool);
    if (!m || !(*m == sample[i]) || !f.ok() || !(f.message == sample[i]))
      out.ok = false;
  }
  const std::size_t n = sample.size();
  std::uint64_t sink = 0;
  std::uint64_t t0 = now_ns();
  for (std::uint64_t c = 0; c < calls; ++c)
    sink += encode(sample[c % n], pool).size();
  out.encode_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(calls);
  t0 = now_ns();
  for (std::uint64_t c = 0; c < calls; ++c) {
    const std::vector<std::uint8_t>& v = bytes[c % n];
    sink += decode(v.data(), v.size(), pool).has_value() ? 1 : 0;
  }
  out.decode_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(calls);
  t0 = now_ns();
  for (std::uint64_t c = 0; c < calls; ++c)
    sink += net::encode_frame(static_cast<sim::EdgeId>(c % 2), sample[c % n],
                              pool).size();
  out.frame_encode_ns =
      static_cast<double>(now_ns() - t0) / static_cast<double>(calls);
  t0 = now_ns();
  for (std::uint64_t c = 0; c < calls; ++c) {
    const std::vector<std::uint8_t>& v = frames[c % n];
    sink += net::decode_frame(v.data(), v.size(), pool).ok() ? 1 : 0;
  }
  out.frame_decode_ns =
      static_cast<double>(now_ns() - t0) / static_cast<double>(calls);
  if (sink == 0) out.ok = false;  // keeps the loops observable
}

// A bound loopback UDP socket, closed on destruction.
class UdpSocket {
 public:
  UdpSocket() : fd_(::socket(AF_INET, SOCK_DGRAM, 0)) {
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    timeval timeout{0, 200'000};  // a lost datagram fails the probe, fast
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout) !=
            0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    addr_ = addr;
  }
  ~UdpSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  bool ok() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  const sockaddr_in& addr() const noexcept { return addr_; }

 private:
  int fd_;
  sockaddr_in addr_{};
};

void socket_probe(const std::vector<Message>& sample, std::uint64_t batches,
                  ProbeResult& out) {
  UdpSocket tx, rx;
  if (!tx.ok() || !rx.ok()) {
    out.ok = false;
    return;
  }
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < sample.size() && frames.size() < kBatch; ++i)
    frames.push_back(net::encode_frame(0, sample[i]));
  std::vector<std::uint8_t> buf(net::kMaxDatagramSize);
  std::uint64_t send_ns = 0, recv_ns = 0, sent = 0, received = 0;
  for (std::uint64_t b = 0; b < batches; ++b) {
    std::uint64_t t0 = now_ns();
    for (int k = 0; k < kBatch; ++k) {
      const std::vector<std::uint8_t>& f = frames[static_cast<std::size_t>(k) %
                                                  frames.size()];
      if (::sendto(tx.fd(), f.data(), f.size(), 0,
                   reinterpret_cast<const sockaddr*>(&rx.addr()),
                   sizeof rx.addr()) == static_cast<ssize_t>(f.size()))
        ++sent;
    }
    send_ns += now_ns() - t0;
    t0 = now_ns();
    for (int k = 0; k < kBatch; ++k)
      if (::recv(rx.fd(), buf.data(), buf.size(), 0) > 0) ++received;
    recv_ns += now_ns() - t0;
  }
  out.sendto_ns = static_cast<double>(send_ns) / static_cast<double>(sent);
  out.recv_ns = static_cast<double>(recv_ns) / static_cast<double>(received);
  if (sent != batches * kBatch || received != sent) out.ok = false;
}

void mailbox_probe(const std::vector<Message>& sample, std::uint64_t batches,
                   ProbeResult& out) {
  runtime::Mailbox mailbox(kBatch);
  const std::size_t n = sample.size();
  std::uint64_t push_ns = 0, pop_ns = 0, calls = 0;
  for (std::uint64_t b = 0; b < batches; ++b) {
    const std::size_t base = static_cast<std::size_t>(b) * kBatch;
    std::uint64_t t0 = now_ns();
    for (int k = 0; k < kBatch; ++k)
      if (!mailbox.try_push(sample[(base + static_cast<std::size_t>(k)) % n]))
        out.ok = false;
    push_ns += now_ns() - t0;
    t0 = now_ns();
    for (int k = 0; k < kBatch; ++k) {
      const std::optional<Message> m = mailbox.try_pop();
      if (!m || !(*m == sample[(base + static_cast<std::size_t>(k)) % n]))
        out.ok = false;
    }
    pop_ns += now_ns() - t0;
    calls += kBatch;
  }
  out.push_ns = static_cast<double>(push_ns) / static_cast<double>(calls);
  out.pop_ns = static_cast<double>(pop_ns) / static_cast<double>(calls);
}

}  // namespace

ProbeResult run_probes(const BackendSpec& shape, double scale) {
  BackendSpec world = shape;
  world.kind = BackendKind::Simulator;
  ProbeResult out;
  engine_probe(world, scaled(2'000'000, scale), out);
  const std::vector<Message> sample = sample_messages(world);
  if (sample.empty()) {
    out.ok = false;
    return out;
  }
  codec_probe(sample, scaled(400'000, scale), out);
  socket_probe(sample, scaled(400, scale), out);
  mailbox_probe(sample, scaled(4'000, scale), out);
  return out;
}

}  // namespace snapstab::perf
