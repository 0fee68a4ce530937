// thread_runtime.hpp — the mailbox transport of live::Runtime.
//
// One OS thread per process (live/runtime.hpp), and each directed edge of
// the topology a capacity-bounded Mailbox carrying codec-encoded messages:
// the paper's bounded-capacity channel, under genuine concurrency. A send
// into a full mailbox loses the message. Protocol code is shared verbatim
// with the simulator, and the local-index <-> peer mapping is the same
// Topology object the simulator uses (historic constructor: the paper's
// fully-connected rotation numbering).
//
// Seam: send pushes onto the edge's mailbox, receive attempt k pops in-edge
// k and reports `more` until the last in-edge, so an activation makes one
// pass over the node's mailboxes; inject pushes garbage. The `loss_rate`
// option and the fault filter run at receive, between the pop and
// dispatch, like every live transport.
#ifndef SNAPSTAB_RUNTIME_THREAD_RUNTIME_HPP
#define SNAPSTAB_RUNTIME_THREAD_RUNTIME_HPP

#include <memory>
#include <vector>

#include "live/runtime.hpp"
#include "runtime/mailbox.hpp"

namespace snapstab::runtime {

struct ThreadRuntimeOptions {
  std::size_t mailbox_capacity = 1;
  double loss_rate = 0.0;  // per-message probability of losing a delivery
  std::uint64_t seed = 1;  // seeds the per-process protocol and filter RNGs
};

class ThreadRuntime final : public live::Runtime {
 public:
  ThreadRuntime(const sim::Topology& topology,
                ThreadRuntimeOptions options = {});
  // The paper's fully-connected network (historic constructor).
  ThreadRuntime(int process_count, ThreadRuntimeOptions options = {});
  ~ThreadRuntime() override;

  const Mailbox& mailbox(int src, int dst) const;

  bool inject(sim::EdgeId e, const Message& m) override;

 private:
  bool send(int node, sim::EdgeId e, const Message& m) override;
  Inbound receive(int node, int k) override;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;  // one per directed edge
};

}  // namespace snapstab::runtime

#endif  // SNAPSTAB_RUNTIME_THREAD_RUNTIME_HPP
