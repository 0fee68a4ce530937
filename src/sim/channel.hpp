// channel.hpp — a FIFO, lossy, capacity-limited communication channel.
//
// Model (paper, Section 2 and Section 4):
//  - channels are FIFO;
//  - messages may be lost, but if infinitely many messages are sent,
//    infinitely many are received (fair loss; realized by the scheduler);
//  - in the bounded-capacity setting, *a message sent into a full channel is
//    lost* (the channel content is unchanged).
//
// Capacity 0 encodes the unbounded channels of Section 3 (the impossibility
// construction requires stuffing arbitrarily long message sequences).
//
// Storage is a MessageRing: bounded channels size it once at construction
// (capacities up to 4 live inline in the Channel, no heap at all), the
// unbounded ones double it on demand. push/pop move one flat trivially-
// copyable Message — the channel hot path performs zero allocations.
#ifndef SNAPSTAB_SIM_CHANNEL_HPP
#define SNAPSTAB_SIM_CHANNEL_HPP

#include <cstdint>
#include <iterator>

#include "msg/message.hpp"
#include "sim/ring.hpp"

namespace snapstab::sim {

// Observes a channel's empty ↔ non-empty transitions. Every content change
// flows through push/pop/drop_head/clear, so a listener sees an exact image
// of channel occupancy — the basis of the simulator's incremental
// enabled-step index.
class ChannelListener {
 public:
  virtual ~ChannelListener() = default;
  // `tag` identifies the channel (the Simulator binds the channel's EdgeId).
  virtual void channel_transition(int tag, bool nonempty) = 0;
};

class Channel {
 public:
  static constexpr std::size_t kUnbounded = 0;

  explicit Channel(std::size_t capacity = 1)
      : capacity_(capacity),
        ring_(capacity == kUnbounded ? MessageRing::kInlineSlots : capacity) {}

  Channel(Channel&&) noexcept = default;
  Channel& operator=(Channel&&) noexcept = default;

  // Registers the (single) transition observer; pass nullptr to detach.
  void bind_listener(ChannelListener* listener, int tag) noexcept {
    listener_ = listener;
    tag_ = tag;
  }

  bool unbounded() const noexcept { return capacity_ == kUnbounded; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return ring_.size(); }
  bool empty() const noexcept { return ring_.empty(); }

  // Appends `m`; returns false (and leaves the channel unchanged) when the
  // channel is full — the paper's send-into-full-channel loss rule.
  bool push(const Message& m) {
    if (!unbounded() && ring_.size() >= capacity_) {
      ++stats_.lost_on_full;
      return false;
    }
    ring_.push_back(m);
    ++stats_.pushed;
    if (ring_.size() == 1 && listener_ != nullptr)
      listener_->channel_transition(tag_, true);
    return true;
  }

  // Removes and returns the head message by value (a flat copy — no
  // std::optional wrapper, no extra move). Requires !empty(); callers on
  // speculative paths test empty() first. Counts as a delivery.
  Message pop() {
    const Message m = ring_.pop_front();
    ++stats_.popped;
    if (ring_.empty() && listener_ != nullptr)
      listener_->channel_transition(tag_, false);
    return m;
  }

  // Removes and discards the head message: an adversarial drop, accounted
  // separately from deliveries. A drop aimed at an empty channel is a no-op
  // that counts nothing (returns false) — adversaries race deliveries, and
  // a miss must not corrupt the conservation invariant (see Stats).
  bool drop_head() {
    if (ring_.empty()) return false;
    (void)ring_.pop_front();
    ++stats_.dropped;
    if (ring_.empty() && listener_ != nullptr)
      listener_->channel_transition(tag_, false);
    return true;
  }

  const Message& peek() const { return ring_.front(); }  // requires !empty()

  // Direct read access for checkers (e.g., Property 1 scans the remaining
  // content of the initiator's incident channels): indexable, iterable
  // in FIFO order.
  class ContentsView {
   public:
    explicit ContentsView(const MessageRing& ring) noexcept : ring_(&ring) {}

    std::size_t size() const noexcept { return ring_->size(); }
    bool empty() const noexcept { return ring_->empty(); }
    const Message& operator[](std::size_t i) const noexcept {
      return (*ring_)[i];
    }

    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Message;
      using difference_type = std::ptrdiff_t;
      using pointer = const Message*;
      using reference = const Message&;

      iterator(const MessageRing* ring, std::size_t i) noexcept
          : ring_(ring), i_(i) {}
      const Message& operator*() const noexcept { return (*ring_)[i_]; }
      const Message* operator->() const noexcept { return &(*ring_)[i_]; }
      iterator& operator++() noexcept {
        ++i_;
        return *this;
      }
      bool operator==(const iterator&) const noexcept = default;

     private:
      const MessageRing* ring_;
      std::size_t i_;
    };

    iterator begin() const noexcept { return {ring_, 0}; }
    iterator end() const noexcept { return {ring_, ring_->size()}; }

   private:
    const MessageRing* ring_;
  };

  ContentsView contents() const noexcept { return ContentsView(ring_); }

  void clear() {
    const bool was_nonempty = !ring_.empty();
    stats_.cleared += ring_.size();
    ring_.clear();
    if (was_nonempty && listener_ != nullptr)
      listener_->channel_transition(tag_, false);
  }

  struct Stats {
    std::uint64_t pushed = 0;        // messages accepted into the channel
    std::uint64_t lost_on_full = 0;  // sends refused because the channel was full
    std::uint64_t popped = 0;        // messages removed for actual delivery
    std::uint64_t dropped = 0;       // messages removed by the loss adversary
    std::uint64_t cleared = 0;       // messages wiped by clear() (fault bursts)

    // Every accepted message leaves exactly one way.
    std::uint64_t removed() const noexcept {
      return popped + dropped + cleared;
    }
  };
  const Stats& stats() const noexcept { return stats_; }

  // Conservation: accepted = delivered + adversary-dropped + fault-cleared
  // + still in flight, at every instant. The tests assert this per channel
  // and aggregated across a whole network.
  bool stats_consistent() const noexcept {
    return stats_.pushed == stats_.removed() + ring_.size();
  }

 private:
  std::size_t capacity_;
  MessageRing ring_;
  Stats stats_;
  ChannelListener* listener_ = nullptr;
  int tag_ = -1;
};

}  // namespace snapstab::sim

#endif  // SNAPSTAB_SIM_CHANNEL_HPP
