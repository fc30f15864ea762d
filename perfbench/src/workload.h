// Seeded workload generation. Everything linrecd receives — program text,
// facts, goals, updates — comes from here, and the same seed gives the
// same bytes on every platform (the generator is splitmix64 with explicit
// range mapping; std::*_distribution is implementation-defined).

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) for n > 0 (the modulo bias is below 2^-40 for the
  /// ranges used here).
  std::int64_t Below(std::int64_t n) {
    return static_cast<std::int64_t>(Next() % static_cast<std::uint64_t>(n));
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

using Edge = std::pair<std::int64_t, std::int64_t>;

/// A random recursive tree over nodes [0, nodes) — node i's parent is
/// uniform in [0, i) — plus `forward` distinct extra edges u -> v with
/// u < v. Acyclic, and node ids are a topological order.
std::vector<Edge> RandomDag(Rng& rng, int nodes, int forward);

/// LOAD block body: the transitive-closure rules, then one fact per edge.
std::string ProgramText(const std::vector<Edge>& edges);

enum class Workload { kPointLookup, kFanoutRead, kUpdateMix, kSessionChurn };
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// The fixed shape of a workload; seeds change the inputs, never this.
struct Shape {
  /// Nodes of the served graph (session_churn: of each session's tree).
  int nodes = 0;
  /// Forward edges added to the random recursive tree.
  int forward = 0;
  /// Closure rows the seeded graph is drawn to (the median of an
  /// unconstrained draw); 0 for session trees, which are not constrained.
  std::size_t closure_rows = 0;
  /// Materialize the closure during set-up (a full goal), so goals take
  /// the MatchGoal path instead of the σ-bind path.
  bool materialize = false;
  /// Concurrent closed-loop client connections.
  int connections = 1;
  /// Sessions each daemon of the measured phase serves before a fresh one
  /// replaces it; 0 keeps one daemon for the whole phase. linrecd holds
  /// every finished connection's thread until it exits, so its memory and
  /// its mapping count grow with the sessions it has served.
  std::size_t sessions_per_daemon = 0;
  /// Ops run during set-up (counted in setup_s, never in the samples).
  int warmup_ops = 0;
  /// The quantile query_tail_ms reports.
  double tail_quantile = 0.99;
  /// Ops replayed by the traced run: a fixed count, so its counters repeat
  /// exactly for one seed.
  int traced_ops = 0;
};
Shape ShapeOf(Workload w);

enum class OpKind { kQuery, kInsert, kDelete, kSession };

struct Op {
  OpKind kind = OpKind::kQuery;
  /// kQuery: edge.first is the goal's source node. kInsert/kDelete: the
  /// edge.
  Edge edge{0, 0};
  /// kSession: the seed of the session's tree.
  std::uint64_t session_seed = 0;

  bool operator==(const Op& o) const {
    return kind == o.kind && edge == o.edge && session_seed == o.session_seed;
  }
};

/// The request line of a query, insert or delete op (no newline).
std::string RequestLine(const Op& op);
/// The full goal, ?- tc(X, Y).
extern const char* const kFullGoalLine;

/// The tree one session_churn session loads.
std::vector<Edge> SessionEdges(std::uint64_t session_seed);

/// A workload's initial graph and its unbounded, seeded op stream.
/// `stream` separates the op streams of concurrent connections; the graph
/// depends on the seed alone.
class OpStream {
 public:
  OpStream(Workload workload, std::uint64_t seed, int stream = 0);

  const std::vector<Edge>& initial_edges() const { return initial_; }
  Op Next();

 private:
  Op NextUpdate();

  Workload workload_;
  Shape shape_;
  Rng rng_;
  std::vector<Edge> initial_;
  /// fanout_read: cumulative Zipf(1) weights over the non-root sources.
  std::vector<double> zipf_cdf_;
  /// update_mix: the current edge set, and the edges this stream inserted,
  /// oldest first (DELETE takes the front, so the graph stays stationary).
  std::set<Edge> edges_;
  std::deque<Edge> inserted_;
  int cycle_ = 0;
};

}  // namespace perfbench
