// Serving limits: the knobs that keep one misbehaving client from taking
// the front door down. Every limit is enforced per request, with a typed
// error reply — never by dropping the connection or killing the server.

#pragma once

#include <cstddef>

namespace linrec {

struct ServerLimits {
  /// Global bound on queries admitted but not yet completed, across every
  /// session. A submission that would push the count past this replies
  /// ERR Unavailable (backpressure) instead of queueing unboundedly.
  std::size_t max_pending = 128;

  /// Per-query deadline default, in milliseconds; sessions override with
  /// SET timeout_ms. Negative = no deadline. Zero = an already-expired
  /// token — every closure replies ERR DeadlineExceeded at its first check,
  /// which is how the tests exercise expiry deterministically.
  int default_timeout_ms = -1;

  /// Result-size cap default: replies stream at most this many rows and
  /// flag `truncated=1`. Sessions override with SET max_rows.
  std::size_t default_max_rows = 100000;

  /// Global memory ledger limit, in bytes, across every in-flight query's
  /// relation growth. 0 = unlimited. A query whose charge would cross it
  /// replies ERR ResourceExhausted; new submissions shed with
  /// ERR Unavailable while the ledger sits in the pressure band (top 1/8).
  std::size_t global_memory_budget = 0;

  /// Per-query memory budget default, in bytes (0 = unlimited). Sessions
  /// override with SET memory_budget.
  std::size_t default_query_memory_budget = 0;

  /// Retry hint stamped into every shed reply:
  /// "ERR Unavailable retry_after_ms=<N> ...".
  int retry_after_ms = 100;
};

}  // namespace linrec
