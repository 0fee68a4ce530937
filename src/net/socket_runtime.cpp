#include "net/socket_runtime.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "common/check.hpp"

namespace snapstab::net {
namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

int bind_udp(std::uint16_t port, std::uint16_t* bound) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  SNAPSTAB_CHECK_MSG(fd >= 0, "socket(AF_INET, SOCK_DGRAM) failed");
  sockaddr_in addr = loopback_addr(port);
  SNAPSTAB_CHECK_MSG(
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0,
      "cannot bind the node's loopback UDP port");
  socklen_t len = sizeof addr;
  SNAPSTAB_CHECK(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  *bound = ntohs(addr.sin_port);
  return fd;
}

// The nodes this OS process hosts, ascending, after validating the
// hosting options against the topology size.
std::vector<int> hosted_nodes(int n, const SocketRuntimeOptions& options) {
  SNAPSTAB_CHECK_MSG(
      options.ports.empty() ||
          options.ports.size() == static_cast<std::size_t>(n),
      "ports must name one UDP port per node");
  std::vector<int> hosted = options.local_nodes;
  if (hosted.empty())
    for (int i = 0; i < n; ++i) hosted.push_back(i);
  std::sort(hosted.begin(), hosted.end());
  SNAPSTAB_CHECK_MSG(
      std::adjacent_find(hosted.begin(), hosted.end()) == hosted.end(),
      "duplicate node in local_nodes");
  SNAPSTAB_CHECK_MSG(
      hosted.size() == static_cast<std::size_t>(n) || !options.ports.empty(),
      "hosting a node subset requires an explicit per-node port table");
  return hosted;
}

}  // namespace

SocketRuntime::SocketRuntime(const sim::Topology& topology,
                             const SocketRuntimeOptions& options)
    : live::Runtime(topology, options.seed, options.loss_rate,
                    hosted_nodes(topology.process_count(), options)) {
  const auto n = static_cast<std::size_t>(process_count());
  port_table_ = options.ports;
  port_table_.resize(n, 0);
  sockets_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    if (!hosts(static_cast<int>(p))) continue;
    sockets_[p].fd = bind_udp(port_table_[p], &port_table_[p]);
    sockets_[p].buf =
        std::make_unique_for_overwrite<std::uint8_t[]>(kMaxDatagramSize);
  }
  inject_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  SNAPSTAB_CHECK_MSG(inject_fd_ >= 0, "cannot open the injection socket");
}

SocketRuntime::SocketRuntime(int process_count,
                             const SocketRuntimeOptions& options)
    : SocketRuntime(sim::Topology::complete(process_count), options) {}

SocketRuntime::~SocketRuntime() {
  shutdown();
  for (const Socket& s : sockets_)
    if (s.fd >= 0) ::close(s.fd);
  if (inject_fd_ >= 0) ::close(inject_fd_);
}

std::uint16_t SocketRuntime::port_of(int node) const {
  SNAPSTAB_CHECK(node >= 0 && node < process_count());
  const std::uint16_t port = port_table_[static_cast<std::size_t>(node)];
  SNAPSTAB_CHECK_MSG(port != 0, "no port known for a remote node");
  return port;
}

bool SocketRuntime::send(int node, sim::EdgeId e, const Message& m) {
  const int dst = topology().edge_dst(e);
  const std::uint16_t port = port_table_[static_cast<std::size_t>(dst)];
  if (port == 0) return false;  // remote node with no known port
  const std::vector<std::uint8_t> frame = encode_frame(e, m, string_pool());
  const sockaddr_in addr = loopback_addr(port);
  const ssize_t sent =
      ::sendto(sockets_[static_cast<std::size_t>(node)].fd, frame.data(),
               frame.size(), 0, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr);
  if (sent != static_cast<ssize_t>(frame.size())) return false;
  datagrams_sent_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

SocketRuntime::Inbound SocketRuntime::receive(int node, int /*k*/) {
  Inbound in;
  Socket& s = sockets_[static_cast<std::size_t>(node)];
  const ssize_t r = ::recv(s.fd, s.buf.get(), kMaxDatagramSize, MSG_DONTWAIT);
  if (r < 0) {  // EAGAIN: nothing pending (or a transient error)
    in.more = false;
    return in;
  }
  datagrams_received_.fetch_add(1, std::memory_order_relaxed);
  const DecodedFrame frame =
      decode_frame(s.buf.get(), static_cast<std::size_t>(r), string_pool());
  by_result_[static_cast<std::size_t>(frame.result)].fetch_add(
      1, std::memory_order_relaxed);
  if (!frame.ok()) return in;  // counted and dropped, never delivered
  if (frame.edge < 0 || frame.edge >= topology().edge_count() ||
      topology().edge_dst(frame.edge) != node) {
    bad_edge_.fetch_add(1, std::memory_order_relaxed);
    return in;
  }
  in.edge = frame.edge;
  in.message = frame.message;
  return in;
}

int SocketRuntime::ready_fd(int node) const {
  return sockets_[static_cast<std::size_t>(node)].fd;
}

bool SocketRuntime::inject_datagram(int dst_node, const void* data,
                                    std::size_t size) {
  SNAPSTAB_CHECK(dst_node >= 0 && dst_node < process_count());
  const std::uint16_t port = port_table_[static_cast<std::size_t>(dst_node)];
  if (port == 0) return false;
  const sockaddr_in addr = loopback_addr(port);
  std::lock_guard<std::mutex> lock(inject_mu_);
  return ::sendto(inject_fd_, data, size, 0,
                  reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == static_cast<ssize_t>(size);
}

bool SocketRuntime::inject(sim::EdgeId e, const Message& m) {
  const std::vector<std::uint8_t> frame = encode_frame(e, m, string_pool());
  return inject_datagram(topology().edge_dst(e), frame.data(), frame.size());
}

SocketRuntime::WireStats SocketRuntime::wire_stats() const {
  WireStats out;
  out.datagrams_sent = datagrams_sent_.load(std::memory_order_relaxed);
  out.datagrams_received = datagrams_received_.load(std::memory_order_relaxed);
  for (int i = 0; i < kWireFrameResultCount; ++i) {
    const std::uint64_t c =
        by_result_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    out.by_result[static_cast<std::size_t>(i)] = c;
    if (i != static_cast<int>(WireFrameResult::Ok)) out.rejected_frames += c;
  }
  out.bad_edge = bad_edge_.load(std::memory_order_relaxed);
  const FilterStats f = filter_stats();
  out.delivered = f.delivered;
  out.loss_drops = f.loss_drops;
  out.filter_drops = f.filter_drops;
  out.filter_duplicates = f.filter_duplicates;
  out.down_drops = f.down_drops;
  return out;
}

}  // namespace snapstab::net
