// Process plumbing for the load generator: the server child process
// (spawn, wait for its listening ports, stop) and the CPU / memory readings
// the end-to-end metrics need.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// A `mocha_live --server` child. Readiness is the server's own startup
// line per shard on its stdout, read through a pipe as it is written, so
// set-up time is not quantized by polling.
class ServerProcess {
 public:
  // Spawns `argv` (argv[0] is the binary path) with the MOCHA_NETEM_*
  // variables removed from its environment, and blocks until `shards`
  // "on udp port N" lines arrived or `timeout_us` passed. Throws
  // std::runtime_error on failure (the child is reaped first).
  ServerProcess(const std::vector<std::string>& argv, int shards,
                std::int64_t timeout_us);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  // UDP port of shard k, in shard order.
  const std::vector<std::uint16_t>& ports() const { return ports_; }

  // SIGTERM, a bounded wait for a clean exit, then SIGKILL; always reaps.
  // Idempotent. Returns the exit status from waitpid (-1 if killed hard).
  int stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::vector<std::uint16_t> ports_;
};

// Nanoseconds of CPU every thread of `pid` has run (sum over
// /proc/<pid>/task/*/schedstat); 0 when the process is gone.
std::int64_t process_cpu_ns(pid_t pid);
// This process's CPU time, all threads (CLOCK_PROCESS_CPUTIME_ID).
std::int64_t self_cpu_ns();
// Peak resident set (VmHWM) of `pid` in KiB; 0 when unreadable.
std::int64_t peak_rss_kib(pid_t pid);
// Restricts this process, the threads it starts later and the children it
// spawns to the highest-numbered CPU it may run on, and returns that CPU
// (-1 when the affinity cannot be read or set).
int pin_to_one_cpu();
// Monotonic clock in nanoseconds.
std::int64_t now_ns();

// Clock ticks of one CPU (the "cpuN" line of /proc/stat), or of the whole
// machine when `cpu` < 0: the ticks stolen by the hypervisor for other
// guests, and all ticks. Zeros when unreadable.
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostCpu host_cpu(int cpu);
// Percent of the CPU time stolen between two readings.
double steal_pct(const HostCpu& before, const HostCpu& after);

}  // namespace perfbench
