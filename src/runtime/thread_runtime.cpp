#include "runtime/thread_runtime.hpp"

#include <numeric>

namespace snapstab::runtime {
namespace {

std::vector<int> every_node(int n) {
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

}  // namespace

ThreadRuntime::ThreadRuntime(const sim::Topology& topology,
                             ThreadRuntimeOptions options)
    : live::Runtime(topology, options.seed, options.loss_rate,
                    every_node(topology.process_count())) {
  const int edges = topology.edge_count();
  mailboxes_.reserve(static_cast<std::size_t>(edges));
  for (int e = 0; e < edges; ++e)
    mailboxes_.push_back(
        std::make_unique<Mailbox>(options.mailbox_capacity, &string_pool()));
}

ThreadRuntime::ThreadRuntime(int process_count, ThreadRuntimeOptions options)
    : ThreadRuntime(sim::Topology::complete(process_count), options) {}

ThreadRuntime::~ThreadRuntime() { shutdown(); }

const Mailbox& ThreadRuntime::mailbox(int src, int dst) const {
  return *mailboxes_[static_cast<std::size_t>(
      topology().edge_between(src, dst))];
}

bool ThreadRuntime::send(int /*node*/, sim::EdgeId e, const Message& m) {
  return inject(e, m);
}

ThreadRuntime::Inbound ThreadRuntime::receive(int node, int k) {
  Inbound in;
  in.more = k + 1 < topology().degree(node);  // one pass per activation
  const sim::EdgeId e = topology().in_edge(node, k);
  if (auto m = mailboxes_[static_cast<std::size_t>(e)]->try_pop()) {
    in.edge = e;
    in.message = *m;
  }
  return in;
}

bool ThreadRuntime::inject(sim::EdgeId e, const Message& m) {
  if (!mailboxes_[static_cast<std::size_t>(e)]->try_push(m)) return false;
  wake(topology().edge_dst(e));
  return true;
}

}  // namespace snapstab::runtime
