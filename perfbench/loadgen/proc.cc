#include "loadgen/proc.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t self_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t process_cpu_ns(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  std::int64_t total = 0;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    std::int64_t ns = 0;
    if (in >> ns) total += ns;
  }
  ::closedir(d);
  return total;
}

HostCpu host_cpu(int cpu) {
  std::ifstream in("/proc/stat");
  const std::string want = cpu < 0 ? "cpu" : "cpu" + std::to_string(cpu);
  std::string line;
  HostCpu h;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string label;
    if (!(fields >> label) || label != want) continue;
    // user nice system idle iowait irq softirq steal
    std::uint64_t ticks = 0;
    for (int field = 0; field < 8 && fields >> ticks; ++field) {
      h.total += ticks;
      if (field == 7) h.steal = ticks;
    }
    break;
  }
  return h;
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

double steal_pct(const HostCpu& before, const HostCpu& after) {
  const std::uint64_t ticks = after.total - before.total;
  return ticks == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(ticks);
}

std::int64_t peak_rss_kib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::int64_t kib = 0;
      fields >> kib;
      return kib;
    }
  }
  return 0;
}

ServerProcess::ServerProcess(const std::vector<std::string>& argv,
                             int shards, std::int64_t timeout_us) {
  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2: " + std::string(std::strerror(errno)));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);

  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<char*> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MOCHA_NETEM_", 12) != 0) env.push_back(*e);
  }
  env.push_back(nullptr);

  const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                               env.data());
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  out_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(out_fd_);
    out_fd_ = -1;
    throw std::runtime_error("posix_spawn " + argv[0] + ": " +
                             std::strerror(rc));
  }

  const std::int64_t deadline = now_ns() + timeout_us * 1000;
  std::string pending;
  while (static_cast<int>(ports_.size()) < shards) {
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    pollfd pfd{out_fd_, POLLIN, 0};
    if (left_ms <= 0 || ::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) {
      stop();
      throw std::runtime_error("server did not report its ports in time");
    }
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) {
      stop();
      throw std::runtime_error("server exited before reporting its ports");
    }
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t nl = 0;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      const std::size_t at = line.find("on udp port ");
      if (at != std::string::npos) {
        ports_.push_back(static_cast<std::uint16_t>(
            std::stoul(line.substr(at + std::strlen("on udp port ")))));
      }
    }
  }
}

ServerProcess::~ServerProcess() { stop(); }

int ServerProcess::stop() {
  if (pid_ <= 0) return 0;
  ::kill(pid_, SIGTERM);
  // Drain the child's stdout (its exit summary) so it never blocks on a
  // full pipe, until EOF or the grace period ends.
  const std::int64_t deadline = now_ns() + 5'000'000'000LL;
  int status = 0;
  bool reaped = false;
  while (now_ns() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      reaped = true;
      break;
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    if (out_fd_ >= 0 && ::poll(&pfd, 1, 10) > 0) {
      char buf[4096];
      if (::read(out_fd_, buf, sizeof(buf)) <= 0) {
        ::close(out_fd_);
        out_fd_ = -1;
      }
    } else if (out_fd_ < 0) {
      ::usleep(2000);
    }
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    status = -1;
  }
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  return status;
}

}  // namespace perfbench
