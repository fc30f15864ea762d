// The client side of the wire: a blocking loopback TCP connection that
// reads whole protocol replies, and a linrecd child process.

#pragma once

#include <sys/types.h>

#include <memory>
#include <string>

namespace perfbench {

class Connection {
 public:
  Connection() = default;
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects to 127.0.0.1:port; false on failure.
  bool Open(int port);
  bool ok() const { return fd_ >= 0; }
  bool Send(const std::string& bytes);
  /// Reads one whole reply: a RESULT block through its "." line, or one
  /// line for every other reply this client provokes.
  bool Read(std::string* reply);
  void Close();

 private:
  /// How long Read spins on an empty socket before it blocks in poll().
  static constexpr int kSpinUs = 50;

  /// Waits until the socket has bytes (or an error) to read.
  bool WaitReadable();

  int fd_ = -1;
  std::string buf_;
};

/// A `linrecd --port 0 --workers <n>` child with its stdout piped for the
/// LISTENING line. The destructor kills and reaps a daemon still running,
/// so no exit path leaves one behind.
class Daemon {
 public:
  /// Null, with *error set, if the daemon cannot start or never listens.
  static std::unique_ptr<Daemon> Start(const std::string& path, int workers,
                                       std::string* error);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  /// The daemon's peak resident set (VmHWM) in MiB, or -1.
  double PeakRssMb() const;
  /// Sends SHUTDOWN on `conn` and reaps the process. `conn` must be the
  /// daemon's last open connection: linrecd joins every connection thread
  /// before it exits.
  bool Shutdown(Connection& conn);

 private:
  Daemon() = default;
  void Kill();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

}  // namespace perfbench
