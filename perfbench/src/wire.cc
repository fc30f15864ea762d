#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

bool Connection::Open(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  // Each request is one small write; without NODELAY it could wait for the
  // ACK of the previous request's segment.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool Connection::Send(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Connection::Read(std::string* reply) {
  // A RESULT block ends at its "." line (a row line is never "."). The
  // search resumes where the previous chunk's search stopped.
  std::size_t scanned = 0;
  for (;;) {
    const std::size_t header_end = buf_.find('\n');
    if (header_end != std::string::npos) {
      std::size_t end = header_end + 1;
      if (buf_.compare(0, 7, "RESULT ") == 0) {
        const std::size_t dot =
            buf_.find("\n.\n", std::max(header_end, scanned));
        end = dot == std::string::npos ? std::string::npos : dot + 3;
      }
      if (end != std::string::npos) {
        reply->assign(buf_, 0, end);
        buf_.erase(0, end);
        return true;
      }
      scanned = buf_.size() - 2;
    }
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!WaitReadable()) return false;
      continue;
    }
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Connection::WaitReadable() {
  // Spin briefly, so a reply that is nearly there does not pay for waking
  // a halted vCPU, then block: an endless spin would take a core from the
  // daemon on a host with few of them.
  const auto spin_until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(kSpinUs);
  pollfd readable{fd_, POLLIN, 0};
  while (std::chrono::steady_clock::now() < spin_until) {
    const int ready = ::poll(&readable, 1, 0);
    if (ready != 0) return ready > 0 || errno == EINTR;
  }
  const int ready = ::poll(&readable, 1, -1);
  return ready > 0 || errno == EINTR;
}

std::unique_ptr<Daemon> Daemon::Start(const std::string& path, int workers,
                                      std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = "pipe2 failed";
    return nullptr;
  }
  const std::string workers_arg = std::to_string(workers);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::execl(path.c_str(), path.c_str(), "--port", "0", "--workers",
            workers_arg.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->pid_ = pid;
  daemon->out_fd_ = fds[0];

  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd readable{daemon->out_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&readable, 1, static_cast<int>(left)) <= 0) {
      *error = "linrecd printed no LISTENING line within 30 s";
      return nullptr;
    }
    char buf[256];
    const ssize_t n = ::read(daemon->out_fd_, buf, sizeof(buf));
    if (n <= 0) {
      *error = "linrecd (" + path + ") exited before listening";
      return nullptr;
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
  if (std::sscanf(line.c_str(), "LISTENING %d", &daemon->port_) != 1 ||
      daemon->port_ <= 0) {
    *error = "unexpected linrecd output: " + line;
    return nullptr;
  }
  return daemon;
}

Daemon::~Daemon() {
  Kill();
  if (out_fd_ >= 0) ::close(out_fd_);
}

void Daemon::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

double Daemon::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1;
}

bool Daemon::Shutdown(Connection& conn) {
  std::string reply;
  const bool acked = conn.Send("SHUTDOWN\n") && conn.Read(&reply) &&
                     reply == "OK shutdown\n";
  conn.Close();
  for (int i = 0; i < 1000; ++i) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return acked && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Kill();
  return false;
}

}  // namespace perfbench
