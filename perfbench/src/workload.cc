#include "workload.h"

#include <algorithm>
#include <cstddef>

#include "oracle.h"

namespace perfbench {
namespace {

constexpr const char* kRules =
    "tc(X, Y) :- e(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), e(Z, Y).\n";

/// update_mix keeps this many inserted edges live: the FIFO fills during
/// warm-up, then every cycle inserts one edge, reads the view back and
/// deletes the oldest.
constexpr std::size_t kUpdateFifoDepth = 32;

/// fanout_read: the root's share of goals (its reply is every other node),
/// and the lowest id of the other sources. The subtree of a low id swings
/// with the seed (node 1's is uniform over [0, n)); leaving ids below this
/// out keeps every seed's reply-size mix, and so its throughput, the same.
constexpr double kRootShare = 0.08;
constexpr std::int64_t kFirstZipfSource = 32;

/// Draws per seed before the closest graph is kept.
constexpr std::uint64_t kGraphDraws = 256;

/// The seed's graph: the first draw whose closure is within 1% of the
/// shape's target, else the closest of kGraphDraws draws. Unconstrained,
/// the view size (and with it every view scan and DRed cone) differs by
/// ~8% (IQR) between seeds.
std::vector<Edge> SeededDag(const Shape& shape, std::uint64_t seed) {
  std::vector<Edge> best;
  std::size_t best_gap = SIZE_MAX;
  for (std::uint64_t draw = 0; draw < kGraphDraws; ++draw) {
    Rng rng((seed ^ 0x5eed5eed5eed5eedULL) + draw * 0x9e3779b97f4a7c15ULL);
    std::vector<Edge> edges = RandomDag(rng, shape.nodes, shape.forward);
    const std::size_t rows = Oracle(shape.nodes, edges).closure_size();
    const std::size_t gap = rows > shape.closure_rows
                                ? rows - shape.closure_rows
                                : shape.closure_rows - rows;
    if (gap < best_gap) {
      best_gap = gap;
      best = std::move(edges);
    }
    if (gap * 100 <= shape.closure_rows) break;
  }
  return best;
}

std::string EdgeAtom(const Edge& e) {
  return "e(" + std::to_string(e.first) + ", " + std::to_string(e.second) +
         ").";
}

}  // namespace

const char* const kFullGoalLine = "?- tc(X, Y).";

std::vector<Edge> RandomDag(Rng& rng, int nodes, int forward) {
  std::vector<Edge> edges;
  std::set<Edge> seen;
  for (std::int64_t i = 1; i < nodes; ++i) {
    edges.emplace_back(rng.Below(i), i);
    seen.insert(edges.back());
  }
  const std::size_t target = edges.size() + static_cast<std::size_t>(forward);
  while (edges.size() < target) {
    const std::int64_t v = 1 + rng.Below(nodes - 1);
    const Edge e{rng.Below(v), v};
    if (seen.insert(e).second) edges.push_back(e);
  }
  return edges;
}

std::string ProgramText(const std::vector<Edge>& edges) {
  std::string text = kRules;
  for (const Edge& e : edges) {
    text += EdgeAtom(e);
    text += '\n';
  }
  return text;
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kPointLookup, Workload::kFanoutRead,
                     Workload::kUpdateMix, Workload::kSessionChurn}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPointLookup:
      return "point_lookup";
    case Workload::kFanoutRead:
      return "fanout_read";
    case Workload::kUpdateMix:
      return "update_mix";
    case Workload::kSessionChurn:
      return "session_churn";
  }
  return "";
}

Shape ShapeOf(Workload w) {
  Shape s;
  switch (w) {
    case Workload::kPointLookup:
      s.nodes = 20000;
      s.forward = 1000;
      s.closure_rows = 228000;
      s.warmup_ops = 200;
      s.tail_quantile = 0.99;
      s.traced_ops = 1500;
      break;
    case Workload::kFanoutRead:
      s.nodes = 20000;
      s.forward = 1000;
      s.closure_rows = 228000;
      s.materialize = true;
      s.warmup_ops = 100;
      s.tail_quantile = 0.95;
      s.traced_ops = 600;
      break;
    case Workload::kUpdateMix:
      s.nodes = 4000;
      s.forward = 200;
      s.closure_rows = 36500;
      s.materialize = true;
      s.warmup_ops = static_cast<int>(kUpdateFifoDepth) + 30;
      s.tail_quantile = 0.85;
      s.traced_ops = 300;
      break;
    case Workload::kSessionChurn:
      s.nodes = 301;
      s.connections = 2;
      s.sessions_per_daemon = 1000;
      s.warmup_ops = 20;
      s.tail_quantile = 0.99;
      s.traced_ops = 400;
      break;
  }
  return s;
}

std::string RequestLine(const Op& op) {
  switch (op.kind) {
    case OpKind::kQuery:
      return "?- tc(" + std::to_string(op.edge.first) + ", Y).";
    case OpKind::kInsert:
      return "INSERT " + EdgeAtom(op.edge);
    case OpKind::kDelete:
      return "DELETE " + EdgeAtom(op.edge);
    case OpKind::kSession:
      break;
  }
  return "";
}

std::vector<Edge> SessionEdges(std::uint64_t session_seed) {
  Rng rng(session_seed);
  return RandomDag(rng, ShapeOf(Workload::kSessionChurn).nodes, 0);
}

OpStream::OpStream(Workload workload, std::uint64_t seed, int stream)
    : workload_(workload),
      shape_(ShapeOf(workload)),
      rng_(seed * 0x100000001b3ULL + static_cast<std::uint64_t>(stream) + 1) {
  if (workload_ != Workload::kSessionChurn) {
    initial_ = SeededDag(shape_, seed);
  }
  if (workload_ == Workload::kFanoutRead) {
    double total = 0;
    for (std::int64_t id = kFirstZipfSource; id < shape_.nodes; ++id) {
      total += 1.0 / static_cast<double>(id + 1);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }
  if (workload_ == Workload::kUpdateMix) {
    edges_.insert(initial_.begin(), initial_.end());
  }
}

Op OpStream::Next() {
  Op op;
  switch (workload_) {
    case Workload::kPointLookup:
      op.edge.first = rng_.Below(shape_.nodes);
      break;
    case Workload::kFanoutRead: {
      if (rng_.Unit() < kRootShare) break;  // source 0, the root
      const auto it =
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), rng_.Unit());
      op.edge.first = std::min<std::int64_t>(
          kFirstZipfSource + (it - zipf_cdf_.begin()), shape_.nodes - 1);
      break;
    }
    case Workload::kUpdateMix:
      return NextUpdate();
    case Workload::kSessionChurn:
      op.kind = OpKind::kSession;
      op.session_seed = rng_.Next();
      break;
  }
  return op;
}

Op OpStream::NextUpdate() {
  Op op;
  const int phase = inserted_.size() < kUpdateFifoDepth ? 0 : cycle_++ % 3;
  if (phase == 0) {
    Edge e;
    do {
      const std::int64_t v = 1 + rng_.Below(shape_.nodes - 1);
      e = {rng_.Below(v), v};
    } while (!edges_.insert(e).second);
    inserted_.push_back(e);
    op.kind = OpKind::kInsert;
    op.edge = e;
  } else if (phase == 1) {
    // Read back through the root, an ancestor of every inserted edge's tail.
    // Its reply is every other node on every seed, so a read costs
    // milliseconds of view scan and formatting; a read from the tail
    // returned ~30 rows in ~0.15 ms, which socket wake-ups dominated.
    op.kind = OpKind::kQuery;
    op.edge.first = 0;
  } else {
    op.kind = OpKind::kDelete;
    op.edge = inserted_.front();
    inserted_.pop_front();
    edges_.erase(op.edge);
  }
  return op;
}

}  // namespace perfbench
