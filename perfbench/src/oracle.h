// The client's correctness oracle: an independent model of the served
// graph that every reply is checked against, outside the timed span.
// It keeps the edge set and its closure as one bitset row per node (the
// nodes a node reaches), which answers every goal and gives the exact
// tuple counts INSERT and DELETE must report.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

class Oracle {
 public:
  /// `edges` must point forward (u < v), as RandomDag's do.
  Oracle(int nodes, const std::vector<Edge>& edges);

  /// Adds / removes an edge; returns how many closure tuples appeared /
  /// vanished (0 when nothing changed).
  std::size_t Insert(const Edge& e);
  std::size_t Delete(const Edge& e);
  /// Tuples in the closure.
  std::size_t closure_size() const { return closure_size_; }

  /// Checks a goal reply against tc(source, Y), or against the whole
  /// closure tc(X, Y) when source < 0. Returns an empty string when the
  /// reply is right, else what is wrong; *rows receives the reply's row
  /// count.
  std::string CheckGoal(const std::string& reply, std::int64_t source,
                        std::size_t* rows) const;

 private:
  /// Sorted Y of tc(source, Y).
  std::vector<std::int64_t> Descendants(std::int64_t source) const;
  bool Bit(std::int64_t row, std::int64_t column) const {
    return (bits_[static_cast<std::size_t>(row) * words_ +
                  static_cast<std::size_t>(column >> 6)] >>
            (column & 63)) &
           1;
  }
  /// Rebuilds every bitset row from the sinks up (ids are topological).
  void Recompute();

  int nodes_;
  std::vector<std::vector<std::int64_t>> out_;
  /// The closure: nodes_ rows of words_ 64-bit words.
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
  std::size_t closure_size_ = 0;
};

/// Parses "RESULT <pred>/<arity> rows=<n> truncated=<t>", two-column rows
/// and the closing "." line; false on any other shape.
bool ParseResult(const std::string& reply, std::size_t* rows,
                 bool* truncated, std::vector<Edge>* tuples);

/// Reads the number after " <key>=" in a reply line; false if absent.
bool ReplyField(const std::string& line, const char* key, std::size_t* value);

/// The first line of a reply, for error messages.
std::string FirstLine(const std::string& reply);

}  // namespace perfbench
