#include "msg/strpool.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <unordered_map>

namespace snapstab {

namespace {
thread_local StringPool* tls_current_pool = nullptr;

std::uint32_t next_pool_tag() {
  static std::atomic<std::uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;  // never 0
}

// tag -> live pool. Leaked (like global()) so lookups stay valid during
// static teardown; pools deregister themselves on destruction.
std::mutex& registry_mutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}
std::unordered_map<std::uint32_t, StringPool*>& registry() {
  static auto* map = new std::unordered_map<std::uint32_t, StringPool*>();
  return *map;
}
}  // namespace

StringPool::StringPool() : tag_(next_pool_tag()) {
  intern(std::string_view{});
  std::lock_guard<std::mutex> lock(registry_mutex());
  registry().emplace(tag_, this);
}

StringPool::~StringPool() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  registry().erase(tag_);
}

StringPool* StringPool::find_by_tag(std::uint32_t tag) noexcept {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(tag);
  return it != registry().end() ? it->second : nullptr;
}

StrId StringPool::find(std::string_view s, std::size_t h) const noexcept {
  if (slots_.empty()) return kNotFound;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const StrId slot = slots_[i];
    if (slot == 0) return kNotFound;
    if (strings_[slot - 1] == s) return slot - 1;
  }
}

void StringPool::place(StrId id, std::size_t h) noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = h & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = id + 1;
}

StrId StringPool::intern(std::string_view s) {
  const std::size_t h = std::hash<std::string_view>{}(s);
  {
    std::shared_lock lock(mu_);
    const StrId id = find(s, h);
    if (id != kNotFound) return id;
  }
  std::unique_lock lock(mu_);
  const StrId found = find(s, h);  // re-check: another thread may have won
  if (found != kNotFound) return found;
  const StrId id = static_cast<StrId>(strings_.size());
  strings_.emplace_back(s);
  if (2 * strings_.size() > slots_.size()) {
    slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
    for (StrId k = 0; k <= id; ++k)
      place(k, std::hash<std::string_view>{}(strings_[k]));
  } else {
    place(id, h);
  }
  return id;
}

const std::string& StringPool::str(StrId id) const noexcept {
  std::shared_lock lock(mu_);
  if (id >= strings_.size()) return kEmptyText;
  return strings_[id];
}

std::size_t StringPool::size() const noexcept {
  std::shared_lock lock(mu_);
  return strings_.size();
}

StringPool& StringPool::global() {
  static StringPool* pool = new StringPool();  // leaked: outlives statics
  return *pool;
}

StringPool& current_string_pool() noexcept {
  StringPool* p = tls_current_pool;
  return p != nullptr ? *p : StringPool::global();
}

ScopedStringPool::ScopedStringPool(StringPool& pool) noexcept
    : previous_(tls_current_pool) {
  tls_current_pool = &pool;
}

ScopedStringPool::~ScopedStringPool() { tls_current_pool = previous_; }

}  // namespace snapstab
