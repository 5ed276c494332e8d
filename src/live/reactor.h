// live::Reactor — the epoll event-loop core of the sharded lock directory.
//
// One Reactor is one event-loop thread. It multiplexes three event sources:
//
//   - fd readiness: watch_fd() registers a per-fd handler dispatched from
//     epoll_wait (level-triggered; the handler sees the raw EPOLL* mask).
//     The LockServer couples this to Endpoint::set_ready_fd(): message
//     delivery signals an eventfd, the reactor drains the port queue.
//   - timers: call_at()/call_after() arm one-shot callbacks on a hashed
//     timer wheel (fixed tick, per-slot rounds counter), the classic
//     O(1)-insert design for the "many pending, mostly cancelled" lease and
//     retransmit populations. cancel() is O(log n) map erase; the orphaned
//     wheel entry is skipped when its slot comes around.
//   - deferred callbacks: post() enqueues a callback from ANY thread; the
//     loop wakes via an eventfd and runs it on the loop thread. This is how
//     other threads hand work to reactor-owned state without locks.
//
// Timer ordering: timers due in the same wheel advance fire in deadline
// order (ties by creation order), so a lease armed before another never
// fires after it. Timers fire at most one tick late.
//
// Threading contract: post() and stop() are thread-safe; everything else —
// watch_fd/unwatch_fd/call_at/call_after/cancel — must run on the loop
// thread once run() has started (before run(), the constructing thread may
// configure freely). Handlers and callbacks always execute on the loop
// thread, so state they touch needs no locking against each other.
//
// Counting: the loop's own load counters live in the metrics registry under
// a name prefix the owner passes at construction ("shard.<id>.reactor." for
// a lock-server shard, "bulk.tcp.<node>.reactor." for the TCP bulk
// backend), the way live::Endpoint derives "ep.<node>.".
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "live/clock.h"
#include "live/telemetry.h"
#include "util/analysis_annotations.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mocha::live {

struct ReactorOptions {
  // Timer-wheel granularity: timers fire at most one tick late.
  std::int64_t tick_us = 1'000;
  std::size_t wheel_slots = 256;
  // epoll_wait horizon while no timers are pending (stop() wakes the loop
  // via the eventfd, so this only bounds how long an idle loop sleeps).
  std::int64_t idle_poll_us = 200'000;
  std::size_t max_epoll_events = 64;
};

class Reactor {
 public:
  using Callback = std::function<void()>;
  // Receives the EPOLL* event mask for the fd.
  using FdHandler = std::function<void(std::uint32_t)>;
  using TimerId = std::uint64_t;
  static constexpr TimerId kInvalidTimer = 0;

  // `metric_prefix` names this loop's registry metrics (it ends in '.'):
  // <prefix>iterations (epoll_wait loop passes), fd_events (handler
  // dispatches), timers_fired, callbacks_run (post()ed callbacks executed)
  // and the max_epoll_batch gauge (largest single epoll_wait return).
  // Reactors given the same prefix add into the same counters.
  explicit Reactor(const std::string& metric_prefix, ReactorOptions opts = {},
                   Clock* clock = nullptr);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Registers (or re-registers, replacing the handler) `fd` for the given
  // EPOLL* event mask. Loop thread only once running.
  void watch_fd(int fd, std::uint32_t events, FdHandler handler)
      MOCHA_REACTOR_ONLY;
  void unwatch_fd(int fd) MOCHA_REACTOR_ONLY;

  // One-shot timers against Clock::now_us(). Loop thread only once running.
  TimerId call_after(std::int64_t delay_us, Callback cb) MOCHA_REACTOR_ONLY;
  TimerId call_at(std::int64_t deadline_us, Callback cb) MOCHA_REACTOR_ONLY;
  // True if the timer was still pending (it will not fire). Safe to call
  // with an id that already fired or was cancelled.
  bool cancel(TimerId id) MOCHA_REACTOR_ONLY;
  std::size_t pending_timers() const { return timers_.size(); }

  // Enqueues `cb` to run on the loop thread. Thread-safe; the only Reactor
  // entry point other threads may use besides stop().
  void post(Callback cb) MOCHA_REACTOR_SAFE EXCLUDES(post_mu_);

  // Runs the event loop on the calling thread until stop(). A stopped
  // reactor stays stopped (create a fresh one to loop again).
  void run();
  void stop() MOCHA_REACTOR_SAFE;
  bool looping() const { return looping_.load(std::memory_order_acquire); }

 private:
  struct PendingTimer {
    std::int64_t deadline_us = 0;
    Callback cb;
  };
  struct SlotEntry {
    TimerId id = kInvalidTimer;
    std::uint64_t rounds = 0;  // full wheel turns left before firing
  };

  void advance_wheel(std::int64_t now_us);
  void run_posted() EXCLUDES(post_mu_);
  int epoll_timeout_ms() EXCLUDES(post_mu_);
  void drain_wake_fd();

  ReactorOptions opts_;
  Clock* clock_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: post() / stop() wakeups

  // Loop-thread-owned (see the threading contract above): handler table,
  // live timers by id, and the wheel holding (id, rounds) slot entries.
  // Handlers are held by shared_ptr so one that unwatches its own fd
  // mid-call does not destroy the std::function it is executing from.
  std::map<int, std::shared_ptr<FdHandler>> fd_handlers_;
  std::map<TimerId, PendingTimer> timers_;
  std::vector<std::vector<SlotEntry>> wheel_;
  std::size_t cursor_ = 0;
  std::int64_t wheel_time_us_ = 0;  // wall time of the cursor's last advance
  TimerId next_timer_id_ = 1;

  std::atomic<bool> stop_{false};
  std::atomic<bool> looping_{false};

  mutable util::Mutex post_mu_;
  std::vector<Callback> posted_ GUARDED_BY(post_mu_);

  // Registry handles under the constructor's prefix; written by the loop
  // thread only.
  Counter* tm_iterations_;
  Counter* tm_fd_events_;
  Counter* tm_timers_fired_;
  Counter* tm_callbacks_run_;
  Gauge* tm_max_epoll_batch_;
};

}  // namespace mocha::live
