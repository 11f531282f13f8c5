// A doinn_serve --listen child process: spawn, wait for its listening line
// (the set-up time), read its memory high-water mark, shut it down.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  /// Spawns @p exe with @p args (stderr appended to @p log_path) and blocks
  /// until it prints "listening on port N". Throws std::runtime_error if
  /// the process exits or stays silent for 120 s; the child is killed and
  /// reaped before the exception leaves.
  ServerProcess(const std::string& exe, const std::vector<std::string>& args,
                const std::string& log_path);
  /// Kills (SIGKILL) and reaps the child if shutdown() did not run.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  /// Seconds from spawn to the listening line: model load, weight prepack,
  /// load-time plan builds and autotune.
  double setup_s() const { return setup_s_; }
  /// VmHWM of the live server, in MiB.
  double peak_rss_mb() const;

  /// Sends a SHUTDOWN frame and waits (up to 60 s, then SIGKILL and throw)
  /// for the server to drain and exit. Returns its exit code; a server
  /// that served ERROR replies exits 1 by design.
  int shutdown();

 private:
  void drain_stdout(int timeout_ms);
  void kill_and_reap();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string out_;
  uint16_t port_ = 0;
  double setup_s_ = 0.0;
};

}  // namespace perfbench
