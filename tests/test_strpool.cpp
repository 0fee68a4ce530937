// test_strpool.cpp — interned text: id identity within a pool, scoped pool
// redirection, the codec as the StrId <-> bytes boundary, and thread-safe
// interning (the ThreadRuntime shares one pool across node threads).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "msg/codec.hpp"
#include "msg/strpool.hpp"
#include "msg/value.hpp"

namespace snapstab {
namespace {

TEST(StringPool, InterningIsInjectivePerPool) {
  StringPool pool;
  const StrId a1 = pool.intern("alpha");
  const StrId b = pool.intern("beta");
  const StrId a2 = pool.intern("alpha");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(pool.str(a1), "alpha");
  EXPECT_EQ(pool.str(b), "beta");
}

TEST(StringPool, IdsStayDenseAndStableAsTheIndexGrows) {
  // Enough strings to regrow the index many times: ids are handed out in
  // first-sight order and every one still resolves both ways.
  StringPool pool;
  constexpr StrId kStrings = 20000;
  for (StrId i = 1; i <= kStrings; ++i)
    ASSERT_EQ(pool.intern("k" + std::to_string(i)), i);
  EXPECT_EQ(pool.size(), std::size_t{kStrings} + 1);
  for (StrId i = 1; i <= kStrings; ++i) {
    ASSERT_EQ(pool.intern("k" + std::to_string(i)), i);
    ASSERT_EQ(pool.str(i), "k" + std::to_string(i));
  }
  EXPECT_EQ(pool.intern(""), StrId{0});
}

TEST(StringPool, IdZeroIsTheEmptyStringAndOutOfRangeResolvesEmpty) {
  StringPool pool;
  EXPECT_EQ(pool.intern(""), StrId{0});
  EXPECT_EQ(pool.str(0), "");
  EXPECT_EQ(pool.str(12345), "");  // defensive: forged ids resolve empty
}

TEST(StringPool, ScopedPoolRedirectsValueText) {
  const Value global_v = Value::text("scoped-probe");
  {
    StringPool local;
    ScopedStringPool scope(local);
    const Value local_v = Value::text("scoped-probe");
    // Resolves against the local pool while the scope is active.
    EXPECT_EQ(local_v.as_text(), "scoped-probe");
    EXPECT_EQ(local.size(), 2u);  // "" + "scoped-probe"
  }
  // Scope gone: the thread is back on the global pool.
  EXPECT_EQ(global_v.as_text(), "scoped-probe");
}

TEST(StringPool, CodecCarriesTextAcrossPools) {
  // Encode under pool A, decode into pool B: the bytes are the bridge; the
  // decoded value compares equal to a B-interned value of the same text.
  StringPool pool_a;
  StringPool pool_b;
  std::vector<std::uint8_t> bytes;
  {
    ScopedStringPool scope(pool_a);
    bytes = encode(Message::app(Value::text("How old are you?")));
  }
  {
    ScopedStringPool scope(pool_b);
    const auto decoded = decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->b, Value::text("How old are you?"));
    EXPECT_EQ(decoded->b.as_text(), "How old are you?");
  }
}

TEST(StringPool, PoolTagsAreUniqueAndRegistered) {
  StringPool a;
  StringPool b;
  EXPECT_NE(a.tag(), 0u);
  EXPECT_NE(a.tag(), b.tag());
  EXPECT_EQ(StringPool::find_by_tag(a.tag()), &a);
  EXPECT_EQ(StringPool::find_by_tag(b.tag()), &b);
  std::uint32_t dead_tag = 0;
  {
    StringPool ephemeral;
    dead_tag = ephemeral.tag();
    EXPECT_EQ(StringPool::find_by_tag(dead_tag), &ephemeral);
  }
  EXPECT_EQ(StringPool::find_by_tag(dead_tag), nullptr);
}

TEST(StringPool, ValuesFromDifferentPoolsNeverAlias) {
  // Same raw id, different pools, different strings: resolution and
  // equality must follow the minting pool, not the raw id.
  StringPool a;
  StringPool b;
  Value from_a;
  Value from_b;
  {
    ScopedStringPool scope(a);
    from_a = Value::text("alpha");
  }
  {
    ScopedStringPool scope(b);
    from_b = Value::text("impostor");
  }
  ASSERT_EQ(from_a.text_id(), from_b.text_id());  // both id 1 in their pools
  EXPECT_NE(from_a, from_b);                      // ...but not equal
  {
    // Whatever pool is current, each value resolves to its own text.
    ScopedStringPool scope(b);
    EXPECT_EQ(from_a.as_text(), "alpha");
    EXPECT_EQ(from_b.as_text(), "impostor");
  }
  // Equal text in different pools compares equal via the slow path.
  Value also_alpha;
  {
    ScopedStringPool scope(b);
    also_alpha = Value::text("alpha");
  }
  EXPECT_EQ(from_a, also_alpha);
  EXPECT_EQ(also_alpha, from_a);
}

TEST(StringPool, ConcurrentInterningYieldsOneIdPerString) {
  StringPool pool;
  constexpr int kThreads = 8;
  constexpr int kStrings = 64;
  std::vector<std::vector<StrId>> ids(kThreads,
                                      std::vector<StrId>(kStrings, 0));
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w)
    workers.emplace_back([&, w] {
      for (int i = 0; i < kStrings; ++i)
        ids[static_cast<std::size_t>(w)][static_cast<std::size_t>(i)] =
            pool.intern("s" + std::to_string(i));
    });
  for (auto& t : workers) t.join();
  for (int w = 1; w < kThreads; ++w)
    EXPECT_EQ(ids[static_cast<std::size_t>(w)], ids[0]);
  EXPECT_EQ(pool.size(), 1u + kStrings);  // "" plus the 64 distinct strings
}

TEST(StringPool, HotPathValueCopiesDoNotTouchThePool) {
  StringPool pool;
  ScopedStringPool scope(pool);
  const Value v = Value::text("payload");
  const std::size_t size_after_intern = pool.size();
  Value copies[64];
  for (auto& c : copies) c = v;  // flat copies
  Message m = Message::app(v);
  Message m2 = m;
  EXPECT_EQ(m2.b, v);
  EXPECT_EQ(copies[63], v);
  EXPECT_EQ(pool.size(), size_after_intern);
}

}  // namespace
}  // namespace snapstab
