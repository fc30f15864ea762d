#include "oracle.h"

#include <algorithm>
#include <cstdlib>

namespace perfbench {

Oracle::Oracle(int nodes, const std::vector<Edge>& edges)
    : nodes_(nodes),
      out_(static_cast<std::size_t>(nodes)),
      words_((static_cast<std::size_t>(nodes) + 63) / 64),
      bits_(static_cast<std::size_t>(nodes) * words_, 0) {
  for (const Edge& e : edges) {
    out_[static_cast<std::size_t>(e.first)].push_back(e.second);
  }
  Recompute();
}

void Oracle::Recompute() {
  std::fill(bits_.begin(), bits_.end(), 0);
  closure_size_ = 0;
  for (std::int64_t a = nodes_ - 1; a >= 0; --a) {
    std::uint64_t* row = &bits_[static_cast<std::size_t>(a) * words_];
    for (std::int64_t b : out_[static_cast<std::size_t>(a)]) {
      const std::uint64_t* child = &bits_[static_cast<std::size_t>(b) * words_];
      for (std::size_t w = 0; w < words_; ++w) row[w] |= child[w];
      row[b >> 6] |= 1ULL << (b & 63);
    }
    for (std::size_t w = 0; w < words_; ++w) {
      closure_size_ += static_cast<std::size_t>(__builtin_popcountll(row[w]));
    }
  }
}

std::size_t Oracle::Insert(const Edge& e) {
  std::vector<std::int64_t>& succ = out_[static_cast<std::size_t>(e.first)];
  if (std::find(succ.begin(), succ.end(), e.second) != succ.end()) return 0;
  succ.push_back(e.second);
  // v and everything v reaches become reachable from u and from every
  // ancestor of u — all of which have ids below u.
  const std::size_t v_row = static_cast<std::size_t>(e.second) * words_;
  std::vector<std::uint64_t> reach(bits_.begin() + v_row,
                                   bits_.begin() + v_row + words_);
  reach[static_cast<std::size_t>(e.second >> 6)] |= 1ULL << (e.second & 63);
  std::size_t added = 0;
  for (std::int64_t a = 0; a <= e.first; ++a) {
    if (a != e.first && !Bit(a, e.first)) continue;
    std::uint64_t* row = &bits_[static_cast<std::size_t>(a) * words_];
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t fresh = reach[w] & ~row[w];
      added += static_cast<std::size_t>(__builtin_popcountll(fresh));
      row[w] |= fresh;
    }
  }
  closure_size_ += added;
  return added;
}

std::size_t Oracle::Delete(const Edge& e) {
  std::vector<std::int64_t>& succ = out_[static_cast<std::size_t>(e.first)];
  const auto it = std::find(succ.begin(), succ.end(), e.second);
  if (it == succ.end()) return 0;
  succ.erase(it);
  const std::size_t before = closure_size_;
  Recompute();
  return before - closure_size_;
}

std::vector<std::int64_t> Oracle::Descendants(std::int64_t source) const {
  std::vector<std::int64_t> found;
  const std::uint64_t* row = &bits_[static_cast<std::size_t>(source) * words_];
  for (std::size_t w = 0; w < words_; ++w) {
    for (std::uint64_t m = row[w]; m != 0; m &= m - 1) {
      found.push_back(static_cast<std::int64_t>(w * 64) + __builtin_ctzll(m));
    }
  }
  return found;
}

std::string Oracle::CheckGoal(const std::string& reply, std::int64_t source,
                              std::size_t* rows) const {
  std::size_t header_rows = 0;
  bool truncated = false;
  std::vector<Edge> tuples;
  *rows = 0;
  if (!ParseResult(reply, &header_rows, &truncated, &tuples)) {
    return "malformed reply: " + FirstLine(reply);
  }
  *rows = tuples.size();
  if (truncated) return "reply truncated";
  if (header_rows != tuples.size()) {
    return "header says rows=" + std::to_string(header_rows) + " but " +
           std::to_string(tuples.size()) + " rows followed";
  }
  if (source >= 0) {
    if (source >= nodes_) return "goal source outside the graph";
    std::vector<std::int64_t> ys;
    ys.reserve(tuples.size());
    for (const Edge& t : tuples) {
      if (t.first != source) return "row does not carry the goal's constant";
      ys.push_back(t.second);
    }
    std::sort(ys.begin(), ys.end());
    const std::vector<std::int64_t> expected = Descendants(source);
    if (ys != expected) {
      return "rows differ from the closure (" +
             std::to_string(ys.size()) + " rows, " +
             std::to_string(expected.size()) + " expected)";
    }
    return "";
  }
  if (tuples.size() != closure_size_) {
    return "full goal returned " + std::to_string(tuples.size()) +
           " rows, the closure has " + std::to_string(closure_size_);
  }
  std::sort(tuples.begin(), tuples.end());
  if (std::adjacent_find(tuples.begin(), tuples.end()) != tuples.end()) {
    return "duplicate rows";
  }
  for (const Edge& t : tuples) {
    if (t.first < 0 || t.first >= nodes_ || t.second < 0 ||
        t.second >= nodes_ || !Bit(t.first, t.second)) {
      return "row (" + std::to_string(t.first) + ", " +
             std::to_string(t.second) + ") is not in the closure";
    }
  }
  return "";
}

bool ParseResult(const std::string& reply, std::size_t* rows,
                 bool* truncated, std::vector<Edge>* tuples) {
  const std::size_t header_end = reply.find('\n');
  if (reply.compare(0, 7, "RESULT ") != 0 || header_end == std::string::npos) {
    return false;
  }
  const std::string header = reply.substr(0, header_end);
  std::size_t flag = 0;
  if (!ReplyField(header, "rows", rows) ||
      !ReplyField(header, "truncated", &flag)) {
    return false;
  }
  *truncated = flag != 0;
  tuples->clear();
  const char* p = reply.c_str() + header_end + 1;
  const char* end = reply.c_str() + reply.size();
  while (p < end && *p != '.') {
    char* next = nullptr;
    const long long a = std::strtoll(p, &next, 10);
    if (next == p) return false;
    p = next;
    const long long b = std::strtoll(p, &next, 10);
    if (next == p || *next != '\n') return false;
    p = next + 1;
    tuples->emplace_back(a, b);
  }
  return end - p == 2 && p[0] == '.' && p[1] == '\n';
}

bool ReplyField(const std::string& line, const char* key, std::size_t* value) {
  const std::string needle = std::string(" ") + key + "=";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* begin = line.c_str() + at + needle.size();
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(begin, &end, 10);
  if (end == begin) return false;
  *value = static_cast<std::size_t>(parsed);
  return true;
}

std::string FirstLine(const std::string& reply) {
  return reply.substr(0, reply.find('\n'));
}

}  // namespace perfbench
