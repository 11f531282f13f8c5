#include "server_process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common.h"
#include "net/protocol.h"

namespace perfbench {

namespace {

constexpr char kListening[] = "listening on port ";

}  // namespace

ServerProcess::ServerProcess(const std::string& exe,
                             const std::vector<std::string>& args,
                             const std::string& log_path) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  std::vector<std::string> argv_s;
  argv_s.push_back(exe);
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  const auto t0 = Clock::now();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec. The death signal
    // makes sure no server outlives a killed benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDOUT_FILENO);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];

  const auto deadline = t0 + std::chrono::seconds(120);
  while (true) {
    const size_t pos = out_.find(kListening);
    if (pos != std::string::npos && out_.find('\n', pos) != std::string::npos) {
      setup_s_ = std::chrono::duration<double>(Clock::now() - t0).count();
      port_ = static_cast<uint16_t>(
          std::stoul(out_.substr(pos + sizeof(kListening) - 1)));
      return;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    int status = 0;
    if (left <= 0 || ::waitpid(pid_, &status, WNOHANG) == pid_) {
      if (left > 0) pid_ = -1;  // already reaped
      kill_and_reap();
      throw std::runtime_error("doinn_serve did not come up (see " + log_path +
                               "); stdout: " + out_);
    }
    drain_stdout(static_cast<int>(std::min<long long>(left, 100)));
  }
}

ServerProcess::~ServerProcess() { kill_and_reap(); }

void ServerProcess::kill_and_reap() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

void ServerProcess::drain_stdout(int timeout_ms) {
  if (out_fd_ < 0) return;
  pollfd p{out_fd_, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0) return;
  char buf[4096];
  const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
  if (n > 0) {
    out_.append(buf, static_cast<size_t>(n));
  } else if (n == 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  throw std::runtime_error("VmHWM not found for the server process");
}

int ServerProcess::shutdown() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    kill_and_reap();
    throw std::runtime_error("cannot connect to doinn_serve for shutdown");
  }
  const std::vector<uint8_t> frame = litho::net::make_shutdown_frame();
  const bool sent = ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
                    static_cast<ssize_t>(frame.size());
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  int status = 0;
  bool exited = false;
  while (sent && Clock::now() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      exited = true;
      break;
    }
    drain_stdout(20);
  }
  ::close(fd);
  if (!exited) {
    kill_and_reap();
    throw std::runtime_error("doinn_serve did not exit after SHUTDOWN");
  }
  pid_ = -1;
  while (out_fd_ >= 0) drain_stdout(1000);
  if (!WIFEXITED(status)) {
    throw std::runtime_error("doinn_serve died by a signal");
  }
  return WEXITSTATUS(status);
}

}  // namespace perfbench
