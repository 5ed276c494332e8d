// live::Reactor tests — the epoll event-loop core under the sharded lock
// directory. Covers the three event sources (timers on the hashed wheel,
// fd readiness, cross-thread post()) plus the ordering and cancellation
// contracts the LockServer's lease machinery depends on:
//
//   - timers fire in deadline order, ties in creation order;
//   - cancel() prevents firing, also when issued from another callback
//     (a RELEASE cancelling the lease timer of the same request);
//   - timers past one wheel turn wait their rounds out (no early fire);
//   - post() runs on the loop thread;
//   - an Endpoint's set_ready_fd() eventfd drives a reactor fd handler even
//     with userspace netem delay on the receive path;
//   - the loop counts its work in the metrics registry under the prefix its
//     owner names.
//
// All wall-clock margins scale with MOCHA_TEST_TIME_SCALE (sanitizer lanes
// set it).
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "live/endpoint.h"
#include "live/reactor.h"
#include "live/telemetry.h"

namespace mocha::live {
namespace {

double time_scale() {
  static const double scale = [] {
    const char* env = std::getenv("MOCHA_TEST_TIME_SCALE");
    return env != nullptr ? std::atof(env) : 1.0;
  }();
  return scale >= 1.0 ? scale : 1.0;
}

std::int64_t scaled(std::int64_t us) {
  return static_cast<std::int64_t>(static_cast<double>(us) * time_scale());
}

// A registry prefix no other reactor in this process uses, so a reactor's
// counters read as its own counts.
std::string fresh_prefix() {
  static int next = 0;
  return "test.reactor." + std::to_string(next++) + ".";
}

std::int64_t metric(const std::string& prefix, const std::string& leaf) {
  for (const auto& m : MetricsRegistry::global().snapshot().metrics) {
    if (m.name == prefix + leaf) return m.value;
  }
  return -1;
}

TEST(Reactor, TimersFireInDeadlineOrderAcrossArmOrder) {
  const std::string prefix = fresh_prefix();
  Reactor reactor(prefix);
  std::vector<int> order;
  // Armed out of deadline order on purpose.
  reactor.call_after(scaled(30'000), [&] { order.push_back(3); });
  reactor.call_after(scaled(10'000), [&] { order.push_back(1); });
  reactor.call_after(scaled(20'000), [&] { order.push_back(2); });
  reactor.call_after(scaled(60'000), [&] { reactor.stop(); });
  EXPECT_EQ(reactor.pending_timers(), 4u);
  reactor.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(reactor.pending_timers(), 0u);
  EXPECT_EQ(metric(prefix, "timers_fired"), 4);
  EXPECT_GT(metric(prefix, "iterations"), 0);
}

TEST(Reactor, SameDeadlineTimersFireInCreationOrder) {
  Reactor reactor(fresh_prefix());
  Clock& clock = Clock::monotonic();
  const std::int64_t deadline = clock.now_us() + scaled(15'000);
  std::vector<int> order;
  reactor.call_at(deadline, [&] { order.push_back(1); });
  reactor.call_at(deadline, [&] { order.push_back(2); });
  reactor.call_at(deadline, [&] { order.push_back(3); });
  reactor.call_after(scaled(40'000), [&] { reactor.stop(); });
  reactor.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Reactor, CancelPreventsFiringAndReportsPendingState) {
  const std::string prefix = fresh_prefix();
  Reactor reactor(prefix);
  bool fired = false;
  const Reactor::TimerId id =
      reactor.call_after(scaled(10'000), [&] { fired = true; });
  EXPECT_NE(id, Reactor::kInvalidTimer);
  EXPECT_TRUE(reactor.cancel(id));    // still pending: cancelled
  EXPECT_FALSE(reactor.cancel(id));   // already gone
  EXPECT_EQ(reactor.pending_timers(), 0u);
  reactor.call_after(scaled(30'000), [&] { reactor.stop(); });
  reactor.run();
  EXPECT_FALSE(fired);
  // The orphaned wheel entry was skipped, not fired.
  EXPECT_EQ(metric(prefix, "timers_fired"), 1);  // only the stop timer
}

TEST(Reactor, CancelFromAnotherTimersCallback) {
  // The lease pattern: handle_release() runs in one callback and cancels
  // the pending lease-expiry timer of the same request.
  Reactor reactor(fresh_prefix());
  bool lease_fired = false;
  const Reactor::TimerId lease =
      reactor.call_after(scaled(30'000), [&] { lease_fired = true; });
  reactor.call_after(scaled(10'000),
                     [&] { EXPECT_TRUE(reactor.cancel(lease)); });
  reactor.call_after(scaled(50'000), [&] { reactor.stop(); });
  reactor.run();
  EXPECT_FALSE(lease_fired);
}

TEST(Reactor, TimerBeyondOneWheelTurnWaitsItsRoundsOut) {
  // A 16-slot x 2ms wheel turns over every 32ms; a 80ms timer needs two
  // full extra rounds and must not fire when its slot first comes around.
  ReactorOptions opts;
  opts.tick_us = scaled(2'000);
  opts.wheel_slots = 16;
  Reactor reactor(fresh_prefix(), opts);
  Clock& clock = Clock::monotonic();
  const std::int64_t armed_at = clock.now_us();
  const std::int64_t delay = scaled(80'000);
  std::int64_t fired_at = 0;
  reactor.call_after(delay, [&] {
    fired_at = clock.now_us();
    reactor.stop();
  });
  reactor.run();
  ASSERT_NE(fired_at, 0);
  EXPECT_GE(fired_at - armed_at, delay);  // never early
}

TEST(Reactor, PostRunsCallbackOnLoopThread) {
  const std::string prefix = fresh_prefix();
  Reactor reactor(prefix);
  std::atomic<bool> done{false};
  std::thread::id loop_thread_id;
  std::thread loop([&] {
    loop_thread_id = std::this_thread::get_id();
    reactor.run();
  });
  // Wait for the loop to actually spin so the wakeup path (not the
  // pre-run pickup) is exercised.
  while (!reactor.looping()) std::this_thread::yield();

  std::thread::id ran_on;
  reactor.post([&] {
    ran_on = std::this_thread::get_id();
    done.store(true, std::memory_order_release);
  });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(scaled(5'000'000));
  while (!done.load(std::memory_order_acquire)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "posted callback never ran";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reactor.stop();
  loop.join();
  EXPECT_EQ(ran_on, loop_thread_id);
  EXPECT_NE(ran_on, std::this_thread::get_id());
  EXPECT_GE(metric(prefix, "callbacks_run"), 1);
}

TEST(Reactor, FdHandlerSeesEventfdReadiness) {
  const std::string prefix = fresh_prefix();
  Reactor reactor(prefix);
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ASSERT_GE(efd, 0);
  std::atomic<int> hits{0};
  reactor.watch_fd(efd, EPOLLIN, [&](std::uint32_t mask) {
    EXPECT_TRUE(mask & EPOLLIN);
    std::uint64_t count = 0;
    // Drain: level-triggered registration would re-fire forever otherwise.
    ASSERT_EQ(::read(efd, &count, sizeof(count)),
              static_cast<ssize_t>(sizeof(count)));
    hits.fetch_add(1, std::memory_order_relaxed);
  });
  std::thread loop([&] { reactor.run(); });
  while (!reactor.looping()) std::this_thread::yield();

  const std::uint64_t one = 1;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(::write(efd, &one, sizeof(one)),
              static_cast<ssize_t>(sizeof(one)));
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(scaled(5'000'000));
    while (hits.load(std::memory_order_relaxed) < i + 1) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "fd handler never fired for write " << i;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  reactor.stop();
  loop.join();
  EXPECT_EQ(hits.load(), 3);
  EXPECT_GE(metric(prefix, "fd_events"), 3);
  EXPECT_GE(metric(prefix, "max_epoll_batch"), 1);
  ::close(efd);
}

TEST(Reactor, UnwatchFromInsideHandlerIsSafe) {
  Reactor reactor(fresh_prefix());
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ASSERT_GE(efd, 0);
  std::atomic<int> hits{0};
  reactor.watch_fd(efd, EPOLLIN, [&](std::uint32_t) {
    std::uint64_t count = 0;
    (void)::read(efd, &count, sizeof(count));
    hits.fetch_add(1, std::memory_order_relaxed);
    reactor.unwatch_fd(efd);  // handler removes itself mid-dispatch
  });
  std::thread loop([&] { reactor.run(); });
  while (!reactor.looping()) std::this_thread::yield();

  const std::uint64_t one = 1;
  ASSERT_EQ(::write(efd, &one, sizeof(one)),
            static_cast<ssize_t>(sizeof(one)));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(scaled(5'000'000));
  while (hits.load(std::memory_order_relaxed) < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Further writes must not reach the (unwatched) handler.
  ASSERT_EQ(::write(efd, &one, sizeof(one)),
            static_cast<ssize_t>(sizeof(one)));
  std::this_thread::sleep_for(std::chrono::microseconds(scaled(50'000)));
  reactor.stop();
  loop.join();
  EXPECT_EQ(hits.load(), 1);
  ::close(efd);
}

TEST(Reactor, EndpointReadyFdDrivesReactorUnderNetemDelay) {
  // The LockServer wiring end to end: Endpoint delivery signals an eventfd,
  // the reactor drains the port queue with recv_for(port, 0) — with a fixed
  // userspace netem delay on the receiving side, so readiness arrives well
  // after send() returns.
  EndpointOptions recv_opts;
  recv_opts.recv_delay_us = scaled(20'000);
  Endpoint sender(/*node=*/1, /*udp_port=*/0);
  Endpoint receiver(/*node=*/2, /*udp_port=*/0, recv_opts);
  sender.add_peer(2, "127.0.0.1", receiver.udp_port());

  constexpr net::Port kPort = 7;
  constexpr int kMessages = 5;
  Reactor reactor(fresh_prefix());
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ASSERT_GE(efd, 0);
  std::atomic<int> received{0};
  reactor.watch_fd(efd, EPOLLIN, [&](std::uint32_t) {
    std::uint64_t count = 0;
    (void)::read(efd, &count, sizeof(count));
    while (auto msg = receiver.recv_for(kPort, 0)) {
      EXPECT_EQ(msg->src, 1u);
      received.fetch_add(1, std::memory_order_relaxed);
    }
  });
  receiver.set_ready_fd(kPort, efd);
  std::thread loop([&] { reactor.run(); });
  while (!reactor.looping()) std::this_thread::yield();

  const std::int64_t t0 = Clock::monotonic().now_us();
  for (int i = 0; i < kMessages; ++i) {
    sender.send(2, kPort, util::Buffer{std::uint8_t(i), 2, 3});
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(scaled(10'000'000));
  while (received.load(std::memory_order_relaxed) < kMessages) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "reactor drained only " << received.load() << "/" << kMessages;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::int64_t elapsed = Clock::monotonic().now_us() - t0;
  EXPECT_GE(elapsed, recv_opts.recv_delay_us);  // netem delay really applied

  receiver.set_ready_fd(kPort, -1);
  reactor.stop();
  loop.join();
  EXPECT_EQ(received.load(), kMessages);
  ::close(efd);
}

}  // namespace
}  // namespace mocha::live
