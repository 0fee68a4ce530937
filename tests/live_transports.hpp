// live_transports.hpp — builds either live::Runtime transport, so one test
// body can run over the mailbox ThreadRuntime and the UDP SocketRuntime.
//
//   class MyTest : public ::testing::TestWithParam<test::Transport> {};
//   TEST_P(MyTest, Case) { auto rt = test::make_live(GetParam(), 3, 7); }
//   INSTANTIATE_TEST_SUITE_P(Live, MyTest, test::kTransports,
//                            test::transport_name);
#ifndef SNAPSTAB_TESTS_LIVE_TRANSPORTS_HPP
#define SNAPSTAB_TESTS_LIVE_TRANSPORTS_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "live/runtime.hpp"
#include "net/socket_runtime.hpp"
#include "runtime/thread_runtime.hpp"

namespace snapstab::test {

enum class Transport { Mailbox, Udp };

inline const auto kTransports =
    ::testing::Values(Transport::Mailbox, Transport::Udp);

inline std::string transport_name(
    const ::testing::TestParamInfo<Transport>& info) {
  return info.param == Transport::Mailbox ? "Mailbox" : "Udp";
}

// A runtime over the complete graph on `n` nodes, hosting all of them.
inline std::unique_ptr<live::Runtime> make_live(Transport t, int n,
                                                std::uint64_t seed) {
  if (t == Transport::Mailbox)
    return std::make_unique<runtime::ThreadRuntime>(
        n, runtime::ThreadRuntimeOptions{.seed = seed});
  return std::make_unique<net::SocketRuntime>(
      n, net::SocketRuntimeOptions{.seed = seed});
}

}  // namespace snapstab::test

#endif  // SNAPSTAB_TESTS_LIVE_TRANSPORTS_HPP
