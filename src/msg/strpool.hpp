// strpool.hpp — interned message text.
//
// The protocols of the paper move tiny fixed payloads: tokens, small ints
// and a handful of distinct text strings ("How old are you?", "stale", …).
// Carrying those strings by value through every Channel::push/pop made the
// message hot path allocate; instead, text lives once in a StringPool and a
// Value carries a 4-byte StrId. Messages are then trivially copyable and
// move through channels as flat words — the same flat-wire-representation
// discipline the message-forwarding literature assumes when counting
// per-hop buffer costs.
//
// Pool model:
//   - A StrId is an index into one specific pool; id 0 is always "".
//   - Every thread has a *current* pool (thread-local), defaulting to the
//     process-wide StringPool::global(). Value::text() interns into the
//     current pool; Value::as_text() resolves against it.
//   - Scoped redirection (ScopedStringPool) gives a Simulator or a trial
//     worker its own pool; the parallel trial harness runs one Simulator +
//     one pool per worker thread, so workers never contend.
//   - Pools are append-only and never shrink: a StrId (and the reference
//     returned by str()) stays valid for the pool's lifetime. Values must
//     only be compared / resolved against the pool they were interned in —
//     crossing pools crosses id spaces. Cross-thread transport goes through
//     the codec, which resolves StrId ↔ bytes at the boundary.
//
// intern() and str() are thread-safe (ThreadRuntime nodes share their
// runtime's pool); interning is rare — the hot path copies ids, not text.
#ifndef SNAPSTAB_MSG_STRPOOL_HPP
#define SNAPSTAB_MSG_STRPOOL_HPP

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace snapstab {

using StrId = std::uint32_t;

// The empty string, namespace-level: accessors that fall back to "no text"
// return a reference to this object, never to a function-local.
inline const std::string kEmptyText{};

class StringPool {
 public:
  StringPool();  // pre-interns "" as id 0
  ~StringPool();

  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  // Returns the id of `s`, interning it on first sight. Thread-safe.
  StrId intern(std::string_view s);

  // Resolves an id; out-of-range ids resolve to kEmptyText (defensive:
  // a Value forged from raw bytes must not crash the resolver). The
  // returned reference is stable for the pool's lifetime. Thread-safe.
  const std::string& str(StrId id) const noexcept;

  // Number of distinct strings interned (including the empty string).
  std::size_t size() const noexcept;

  // Process-unique id-space tag (never 0, never reused). A text Value
  // records the tag of the pool its StrId was minted in, which is what lets
  // the resolver and the codec detect — instead of silently aliasing — a
  // StrId applied to the wrong pool.
  std::uint32_t tag() const noexcept { return tag_; }

  // The live pool carrying `tag`, or nullptr when it has been destroyed.
  // Used by the cross-pool slow paths; the hot paths compare tags only.
  // The returned pointer is NOT lifetime-protected: it is only safe to
  // dereference while the pool is known to stay alive (the callers are
  // defensive paths for same-thread rule violations; a pool being
  // destroyed concurrently by another thread is still a race).
  static StringPool* find_by_tag(std::uint32_t tag) noexcept;

  // The process-wide default pool. Never destroyed (intentionally leaked),
  // so ids interned into it stay resolvable during static teardown.
  static StringPool& global();

 private:
  // The id of `s` (hash `h`), or kNotFound. Caller holds mu_.
  StrId find(std::string_view s, std::size_t h) const noexcept;
  // Records `id` in the first free slot of its probe sequence.
  void place(StrId id, std::size_t h) noexcept;

  static constexpr StrId kNotFound = ~StrId{0};

  const std::uint32_t tag_;
  mutable std::shared_mutex mu_;
  std::deque<std::string> strings_;  // stable addresses, append-only
  // Open-addressing index into strings_: id + 1 per used slot, 0 free. A
  // power-of-two size kept at most half full; 4 bytes a slot instead of a
  // hash-map node per string, since a pool only grows.
  std::vector<StrId> slots_;
};

// The calling thread's current pool (defaults to StringPool::global()).
StringPool& current_string_pool() noexcept;

// Installs `pool` as the calling thread's current pool for the scope.
class ScopedStringPool {
 public:
  explicit ScopedStringPool(StringPool& pool) noexcept;
  ~ScopedStringPool();

  ScopedStringPool(const ScopedStringPool&) = delete;
  ScopedStringPool& operator=(const ScopedStringPool&) = delete;

 private:
  StringPool* previous_;
};

}  // namespace snapstab

#endif  // SNAPSTAB_MSG_STRPOOL_HPP
