// rankset.hpp — a branchless order-statistics set over a bitmap.
//
// Backs the simulator's enabled-step index: an order-statistics set
// (reset / count / contains / set / kth) whose cost model is tuned for the
// sealed step loop's access pattern:
//
//   set  — O(1): one bit test, then at most one bit flip plus two count
//          updates. The set is the single owner of membership, so callers
//          just state it; the index sets a member on every channel
//          empty↔nonempty transition (twice per message at capacity 1),
//          where this beats a Fenwick tree's O(log n) cascade.
//   kth  — a popcount prefix scan over 512-bit groups, then over the ≤ 8
//          words of one group, then a 6-level binary search inside one
//          word. Every level is mask arithmetic: the rank k is effectively
//          random, so data-dependent branches would mispredict ~50% of the
//          time, and the masks keep the whole lookup pipeline-friendly
//          (a Fenwick descent is a serial, mispredicting load chain).
//
// Members are reported by kth in ascending order, which is what the
// engine's candidate-enumeration contract requires.
#ifndef SNAPSTAB_COMMON_RANKSET_HPP
#define SNAPSTAB_COMMON_RANKSET_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace snapstab {

class RankSet {
 public:
  RankSet() = default;

  // Resets to the empty set over the universe {0, .., universe-1}.
  void reset(int universe) {
    n_ = universe;
    count_ = 0;
    const std::size_t words =
        (static_cast<std::size_t>(universe) + 63) / 64;
    words_.assign(words, 0);
    group_count_.assign((words + kGroupWords - 1) / kGroupWords, 0);
    // First probe span of the in-word binary search: half the bit width of
    // the widest word in use. A 16-item universe starts at span 8 instead
    // of wasting two full-width levels on bits that are always zero.
    select_start_ = 32;
    if (words <= 1) {
      const unsigned width = std::bit_ceil(
          static_cast<unsigned>(universe > 0 ? universe : 1));
      select_start_ = static_cast<int>(width) >> 1;
    }
  }

  int universe() const noexcept { return n_; }
  int count() const noexcept { return count_; }

  bool contains(int i) const {
    SNAPSTAB_CHECK(i >= 0 && i < n_);
    return ((words_[static_cast<std::size_t>(i) >> 6] >> (i & 63)) & 1) != 0;
  }

  // Makes item i a member or not; setting the current state is a no-op.
  void set(int i, bool member) {
    if (contains(i) == member) return;
    const std::size_t w = static_cast<std::size_t>(i) >> 6;
    const int delta = member ? 1 : -1;
    words_[w] ^= 1ull << (i & 63);
    group_count_[w >> kGroupShift] += delta;
    count_ += delta;
  }

  // The k-th smallest member, k in [0, count()).
  int kth(int k) const {
    SNAPSTAB_CHECK(k >= 0 && k < count_);
    int rem = k;

    // Group scan: `still` is all-ones while the running rank has not yet
    // landed; it collapses to 0 monotonically, so later groups stop
    // contributing without a branch.
    std::size_t g = 0;
    int still = -1;
    for (std::size_t j = 0; j + 1 < group_count_.size(); ++j) {
      const int c = group_count_[j];
      still &= -static_cast<int>(rem >= c);
      g += static_cast<std::size_t>(1 & still);
      rem -= c & still;
    }

    // Word scan within the chosen group, same monotone-mask pattern.
    const std::size_t base = g << kGroupShift;
    const std::size_t last =
        (base + kGroupWords < words_.size()) ? base + kGroupWords
                                             : words_.size();
    std::size_t w = base;
    still = -1;
    for (std::size_t j = base; j + 1 < last; ++j) {
      const int c = std::popcount(words_[j]);
      still &= -static_cast<int>(rem >= c);
      w += static_cast<std::size_t>(1 & still);
      rem -= c & still;
    }

    return static_cast<int>(w << 6) + select_bit(words_[w], rem);
  }

 private:
  static constexpr std::size_t kGroupWords = 8;  // 512 items per group
  static constexpr unsigned kGroupShift = 3;

  // Position of the rank-th (0-based) set bit of w; rank < popcount(w).
  // Branchless binary search on popcounts of the low half at each level;
  // the descent is instantiated per starting span so the level loop fully
  // unrolls with constant masks, and the dispatch switch takes the same arm
  // for the lifetime of the set — a perfectly predicted branch.
  template <int Start>
  static int select_from(std::uint64_t w, int rank) {
    int pos = 0;
    for (int span = Start; span > 0; span >>= 1) {
      const std::uint64_t low_mask = (1ull << span) - 1;
      const int pc = std::popcount(w & low_mask);
      const int high = -static_cast<int>(rank >= pc);
      rank -= pc & high;
      pos += span & high;
      w >>= span & high;
    }
    return pos;
  }

  int select_bit(std::uint64_t w, int rank) const {
    switch (select_start_) {
      case 1: return select_from<1>(w, rank);
      case 2: return select_from<2>(w, rank);
      case 4: return select_from<4>(w, rank);
      case 8: return select_from<8>(w, rank);
      case 16: return select_from<16>(w, rank);
      default: return select_from<32>(w, rank);
    }
  }

  int n_ = 0;
  int count_ = 0;
  int select_start_ = 32;  // see reset()
  std::vector<std::uint64_t> words_;
  std::vector<int> group_count_;  // members per kGroupWords-word group
};

}  // namespace snapstab

#endif  // SNAPSTAB_COMMON_RANKSET_HPP
