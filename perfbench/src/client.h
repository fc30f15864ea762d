// The benchmark client's shared pieces: run configuration, per-op-type
// samples, a linrecd made ready for a workload, and the two run modes.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "oracle.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {

struct Config {
  Workload workload = Workload::kPointLookup;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string linrecd;
  /// linrecd --workers: engine lanes per execution.
  int workers = 1;
};

/// Latency samples (ms) per op type, and the outcome counts of one phase.
struct Samples {
  std::vector<double> query, insert, remove, load, session;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t reply_bytes = 0;
  std::size_t reply_rows = 0;
  /// Time inside requests: first byte sent to last reply byte received.
  double busy_s = 0;
  /// Time the client spent generating inputs and checking replies.
  double client_s = 0;
  /// The first few failures, for stderr.
  std::vector<std::string> errors;

  void Fail(const std::string& why);
  /// Appends `other`'s samples and adds its counts and times.
  void Merge(const Samples& other);
};

/// A linrecd made ready for a workload, and the client state beside it.
struct Client {
  explicit Client(const Config& config);

  Config config;
  Shape shape;
  OpStream stream;
  Oracle oracle;
  std::unique_ptr<Daemon> daemon;
  /// The measured connection (session_churn ops open their own).
  Connection conn;
  /// Daemon spawn to ready, minus the client's own time.
  double setup_s = 0;
};

/// Spawns linrecd and makes it ready: LOAD, materialization, warm-up ops.
/// Returns null with *error on an infrastructure failure; wrong replies
/// count as failures in *setup.
std::unique_ptr<Client> SetUp(const Config& config, Samples* setup,
                              std::string* error);

/// linrecd's reply to a LOAD of the two tc rules and `facts` facts.
std::string LoadReply(std::size_t facts);

/// Shuts the daemon down through the protocol and reaps it.
bool ShutDown(Client& client);

/// Runs one op through the socket: times it, then checks the reply against
/// the oracle outside the timed span. `reply` (nullable) receives the
/// reply bytes — for a session, every reply of the session. Session ops
/// read only client.daemon, so concurrent connections may share a client.
void RunOp(Client& client, const Op& op, Samples* samples, std::string* reply);

/// Nearest-rank quantile (0 for no samples).
double Quantile(std::vector<double> values, double q);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
/// Prints the JSON result line (the last line of the run's output).
void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics);
/// Prints up to ten failure descriptions to stderr.
void ReportErrors(const Samples& samples);

/// The untraced end-to-end run.
int RunEndToEnd(const Config& config);
/// The traced per-layer run.
int RunTraced(const Config& config);

}  // namespace perfbench
