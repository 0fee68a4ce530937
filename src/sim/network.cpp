#include "sim/network.hpp"

namespace snapstab::sim {

Network::Network(Topology topology, std::size_t capacity)
    : topology_(std::move(topology)), capacity_(capacity) {
  SNAPSTAB_CHECK_MSG(topology_.connected(),
                     "the model requires a connected network");
  const int edges = topology_.edge_count();
  channels_.reserve(static_cast<std::size_t>(edges));
  for (int e = 0; e < edges; ++e) channels_.emplace_back(capacity_);
}

Network::Network(int process_count, std::size_t capacity)
    : Network(Topology::complete(process_count), capacity) {}

Channel& Network::channel(ProcessId src, ProcessId dst) {
  return channels_[static_cast<std::size_t>(topology_.edge_between(src, dst))];
}

const Channel& Network::channel(ProcessId src, ProcessId dst) const {
  return channels_[static_cast<std::size_t>(topology_.edge_between(src, dst))];
}

std::vector<std::pair<ProcessId, ProcessId>> Network::nonempty_channels()
    const {
  std::vector<std::pair<ProcessId, ProcessId>> out;
  for (EdgeId e = 0; e < edge_count(); ++e)
    if (edge_nonempty(e))
      out.emplace_back(topology_.edge_src(e), topology_.edge_dst(e));
  return out;
}

std::size_t Network::total_messages_in_flight() const {
  std::size_t total = 0;
  for (const Channel& ch : channels_) total += ch.size();
  return total;
}

Channel::Stats Network::aggregate_channel_stats() const {
  Channel::Stats total;
  for (const Channel& ch : channels_) {
    const Channel::Stats& s = ch.stats();
    total.pushed += s.pushed;
    total.lost_on_full += s.lost_on_full;
    total.popped += s.popped;
    total.dropped += s.dropped;
    total.cleared += s.cleared;
  }
  return total;
}

}  // namespace snapstab::sim
