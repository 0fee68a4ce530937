// socket_runtime.hpp — the UDP transport of live::Runtime: one socket per
// node.
//
// Every node binds a UDP socket on the loopback interface; every protocol
// message crosses the kernel as a framed datagram (net/wire.hpp over
// msg::codec), so the stack faces a channel that genuinely loses,
// duplicates and reorders — the paper's unbounded-capacity lossy link,
// realized by an actual network instead of a simulated adversary. Node
// threads, the fault filter, the observation log and the lifecycle are the
// shared live::Runtime's.
//
// Hosting modes:
//   * single process (default): one SocketRuntime hosts every node of the
//     topology on ephemeral loopback ports — the loopback integration and
//     bench configuration;
//   * multi-process: `options.ports` fixes one UDP port per node and
//     `options.local_nodes` names the subset this OS process hosts (the
//     examples' `--node i` shape). Peers find each other through the
//     shared port table; a SIGKILLed process can rebind its port and
//     rejoin, which is what the fault engine's process-kill path tests.
//
// Seam: send is one sendto; a node's ready_fd is its socket, so its thread
// sleeps in ppoll until a datagram arrives or its retransmission timer is
// due; receive attempt k is one non-blocking recv, then decode_frame
// (corrupt/truncated datagrams counted and dropped, never delivered) and
// edge validation (must terminate here), after which the shared fault
// filter decides. An activation drains the socket: it
// receives until recv finds it empty (within live::Runtime's
// kMaxReceivesPerActivation), so stale retransmissions do not pile up in
// the kernel buffer ahead of fresh frames. Datagrams a busy process leaves
// unread queue in the kernel socket buffer — the unbounded channel.
// inject sends a framed garbage message from a side-channel socket.
#ifndef SNAPSTAB_NET_SOCKET_RUNTIME_HPP
#define SNAPSTAB_NET_SOCKET_RUNTIME_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "live/runtime.hpp"
#include "net/wire.hpp"

namespace snapstab::net {

struct SocketRuntimeOptions {
  std::uint64_t seed = 1;  // seeds per-node protocol and filter RNGs
  // Receive-side injected datagram loss (on top of whatever the kernel
  // genuinely drops): each accepted frame is discarded with this
  // probability before dispatch. The bench ladder's loss knob.
  double loss_rate = 0.0;
  // One UDP port per node (multi-process mode). Empty: every node binds
  // an ephemeral loopback port, which requires hosting all nodes here.
  std::vector<std::uint16_t> ports;
  // The nodes this OS process hosts. Empty: all of them.
  std::vector<int> local_nodes;
};

class SocketRuntime final : public live::Runtime {
 public:
  SocketRuntime(const sim::Topology& topology,
                const SocketRuntimeOptions& options = {});
  // The paper's fully-connected network.
  SocketRuntime(int process_count, const SocketRuntimeOptions& options = {});
  ~SocketRuntime() override;

  // The UDP port node `node` is reachable on (actual bound port for
  // hosted nodes, the configured one for remote nodes).
  std::uint16_t port_of(int node) const;

  // --- wire accounting ----------------------------------------------------
  struct WireStats {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t delivered = 0;         // dispatched to on_message
    std::uint64_t rejected_frames = 0;   // sum of the non-Ok results below
    std::array<std::uint64_t, kWireFrameResultCount> by_result{};
    std::uint64_t bad_edge = 0;       // frame named an edge not inbound here
    std::uint64_t loss_drops = 0;     // options.loss_rate discards
    std::uint64_t filter_drops = 0;   // fault-filter drop discards
    std::uint64_t filter_duplicates = 0;
    std::uint64_t down_drops = 0;     // fault-filter LinkDown discards
  };
  // Aggregated over every hosted node; safe to read concurrently.
  WireStats wire_stats() const;

  // Sends raw bytes to `dst_node`'s socket from the side-channel socket
  // (hostile datagrams: noise exercising the frame rejections). Returns
  // whether the kernel accepted the datagram.
  bool inject_datagram(int dst_node, const void* data, std::size_t size);

  bool inject(sim::EdgeId e, const Message& m) override;

 private:
  struct Socket {
    int fd = -1;  // -1: the node lives in another process
    // Receive buffer of kMaxDatagramSize bytes, left uninitialised so only
    // the pages datagrams touch become resident.
    std::unique_ptr<std::uint8_t[]> buf;
  };

  bool send(int node, sim::EdgeId e, const Message& m) override;
  Inbound receive(int node, int k) override;
  int ready_fd(int node) const override;

  std::vector<Socket> sockets_;            // node id -> its socket
  std::vector<std::uint16_t> port_table_;  // node id -> UDP port
  int inject_fd_ = -1;
  std::mutex inject_mu_;

  std::atomic<std::uint64_t> datagrams_sent_{0};
  std::atomic<std::uint64_t> datagrams_received_{0};
  std::array<std::atomic<std::uint64_t>, kWireFrameResultCount> by_result_{};
  std::atomic<std::uint64_t> bad_edge_{0};
};

}  // namespace snapstab::net

#endif  // SNAPSTAB_NET_SOCKET_RUNTIME_HPP
