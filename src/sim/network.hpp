// network.hpp — the channels of a topology.
//
// A Network owns one FIFO Channel per directed edge of its Topology, stored
// densely in the topology's canonical edge order. The local-index ↔ peer
// mapping is delegated to the Topology ("local numbers carry no global
// meaning"); the historic constructor builds the paper's fully-connected
// topology with the seed's rotation numbering
//     peer_of(p, k)  = (p + 1 + k) mod n
//     index_of(p, r) = (r - p - 1 + n) mod n
// so complete-topology executions are unchanged.
//
// The Network also maintains an exact set of non-empty edges, fed by the
// channels' transition hooks, and republishes transitions to an optional
// NetworkListener — the Simulator subscribes to keep its enabled-step index
// incremental instead of rescanning all channels per step.
#ifndef SNAPSTAB_SIM_NETWORK_HPP
#define SNAPSTAB_SIM_NETWORK_HPP

#include <vector>

#include "common/check.hpp"
#include "sim/channel.hpp"
#include "sim/observation.hpp"
#include "sim/topology.hpp"

namespace snapstab::sim {

// Observes edge occupancy changes (exact, per directed edge).
class NetworkListener {
 public:
  virtual ~NetworkListener() = default;
  virtual void edge_occupancy_changed(EdgeId e, bool nonempty) = 0;
};

class Network final : private ChannelListener {
 public:
  // `capacity` applies to every channel; Channel::kUnbounded (0) gives the
  // unbounded channels of the impossibility section.
  Network(Topology topology, std::size_t capacity);
  // The paper's fully-connected network (historic constructor).
  Network(int process_count, std::size_t capacity);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const noexcept { return topology_; }
  int process_count() const noexcept { return topology_.process_count(); }
  int edge_count() const noexcept { return topology_.edge_count(); }
  int degree(ProcessId p) const { return topology_.degree(p); }
  std::size_t capacity() const noexcept { return capacity_; }

  Channel& channel(ProcessId src, ProcessId dst);
  const Channel& channel(ProcessId src, ProcessId dst) const;
  // Edge-indexed channel access is on the per-step hot path — inline.
  Channel& edge_channel(EdgeId e) {
    SNAPSTAB_CHECK(e >= 0 && e < edge_count());
    return channels_[static_cast<std::size_t>(e)];
  }
  const Channel& edge_channel(EdgeId e) const {
    SNAPSTAB_CHECK(e >= 0 && e < edge_count());
    return channels_[static_cast<std::size_t>(e)];
  }

  // Local-index ↔ global-id mapping (delegated to the topology).
  ProcessId peer_of(ProcessId p, int local_index) const {
    return topology_.peer_of(p, local_index);
  }
  int index_of(ProcessId p, ProcessId peer) const {
    return topology_.index_of(p, peer);
  }

  // Exact occupancy, maintained through the channel transition hooks.
  bool edge_nonempty(EdgeId e) const {
    SNAPSTAB_CHECK(e >= 0 && e < edge_count());
    return nonempty_[static_cast<std::size_t>(e)] != 0;
  }
  int nonempty_edge_count() const noexcept { return nonempty_count_; }

  // All (src, dst) pairs with a non-empty channel, in ascending (src, dst)
  // order (the deterministic order the scanning schedulers relied on).
  std::vector<std::pair<ProcessId, ProcessId>> nonempty_channels() const;

  std::size_t total_messages_in_flight() const;

  // Sum of every channel's Stats — push/pop/loss accounting for the whole
  // network. `popped` counts actual deliveries only; adversarial drops are
  // in `dropped` (exact loss accounting, see exp_pif's loss section).
  Channel::Stats aggregate_channel_stats() const;

  // At most one listener; the Simulator installs itself.
  void set_listener(NetworkListener* listener) noexcept {
    listener_ = listener;
  }

 private:
  void channel_transition(int tag, bool nonempty) override;

  Topology topology_;
  std::size_t capacity_;
  std::vector<Channel> channels_;  // one per directed edge, canonical order
  std::vector<char> nonempty_;
  int nonempty_count_ = 0;
  NetworkListener* listener_ = nullptr;
};

}  // namespace snapstab::sim

#endif  // SNAPSTAB_SIM_NETWORK_HPP
