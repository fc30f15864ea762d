#include "server/protocol.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>

#include "common/strings.h"

namespace linrec {
namespace {

/// First whitespace-delimited word, uppercased for keyword matching.
std::string Keyword(const std::string& line) {
  std::size_t end = 0;
  while (end < line.size() &&
         !std::isspace(static_cast<unsigned char>(line[end]))) {
    ++end;
  }
  std::string word = line.substr(0, end);
  std::transform(word.begin(), word.end(), word.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return word;
}

std::string Rest(const std::string& line) {
  std::size_t end = 0;
  while (end < line.size() &&
         !std::isspace(static_cast<unsigned char>(line[end]))) {
    ++end;
  }
  while (end < line.size() &&
         std::isspace(static_cast<unsigned char>(line[end]))) {
    ++end;
  }
  return line.substr(end);
}

}  // namespace

Result<Request> ParseRequestLine(const std::string& line) {
  const std::string trimmed = Trim(line);
  Request request;
  if (trimmed.empty() || trimmed[0] == '%') {
    request.kind = RequestKind::kEmpty;
    return request;
  }
  if (trimmed.rfind("?-", 0) == 0) {
    request.kind = RequestKind::kQuery;
    request.text = trimmed;
    return request;
  }
  const std::string keyword = Keyword(trimmed);
  if (keyword == "LOAD") {
    request.kind = RequestKind::kLoad;
  } else if (keyword == "END") {
    request.kind = RequestKind::kEnd;
  } else if (keyword == "FACT") {
    request.kind = RequestKind::kFact;
    request.text = Trim(Rest(trimmed));
    if (request.text.empty()) {
      return Status::InvalidArgument("FACT expects a ground atom clause");
    }
  } else if (keyword == "INSERT") {
    request.kind = RequestKind::kInsert;
    request.text = Trim(Rest(trimmed));
    if (request.text.empty()) {
      return Status::InvalidArgument("INSERT expects a ground atom clause");
    }
  } else if (keyword == "DELETE") {
    request.kind = RequestKind::kDelete;
    request.text = Trim(Rest(trimmed));
    if (request.text.empty()) {
      return Status::InvalidArgument("DELETE expects a ground atom clause");
    }
  } else if (keyword == "EXPLAIN") {
    request.kind = RequestKind::kExplain;
  } else if (keyword == "SET") {
    request.kind = RequestKind::kSet;
    std::string args = Trim(Rest(trimmed));
    std::replace(args.begin(), args.end(), '=', ' ');
    request.text = args;
    if (request.text.empty()) {
      return Status::InvalidArgument("SET expects '<key> <value>'");
    }
  } else if (keyword == "STATS") {
    request.kind = RequestKind::kStats;
  } else if (keyword == "METRICS") {
    request.kind = RequestKind::kMetrics;
  } else if (keyword == "RESET") {
    request.kind = RequestKind::kReset;
  } else if (keyword == "PING") {
    request.kind = RequestKind::kPing;
  } else if (keyword == "QUIT") {
    request.kind = RequestKind::kQuit;
  } else if (keyword == "SHUTDOWN") {
    request.kind = RequestKind::kShutdown;
  } else {
    return Status::InvalidArgument(
        StrCat("unknown command '", keyword,
               "' (expected LOAD, FACT, INSERT, DELETE, ?-, EXPLAIN, SET, "
               "STATS, METRICS, RESET, PING, QUIT or SHUTDOWN)"));
  }
  return request;
}

bool IsEndLine(std::string_view line) {
  std::size_t i = 0;
  while (i < line.size() &&
         std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  for (const char letter : {'E', 'N', 'D'}) {
    if (i == line.size() ||
        std::toupper(static_cast<unsigned char>(line[i])) != letter) {
      return false;
    }
    ++i;
  }
  return i == line.size() ||
         std::isspace(static_cast<unsigned char>(line[i]));
}

Result<SetArgs> ParseSetArgs(const std::string& args) {
  std::size_t space = args.find(' ');
  if (space == std::string::npos) {
    return Status::InvalidArgument("SET expects '<key> <value>'");
  }
  SetArgs set;
  set.key = args.substr(0, space);
  const std::string value_text = Trim(args.substr(space + 1));
  try {
    std::size_t consumed = 0;
    set.value = std::stol(value_text, &consumed);
    if (consumed != value_text.size()) {
      return Status::InvalidArgument(
          StrCat("SET ", set.key, ": '", value_text, "' is not an integer"));
    }
  } catch (const std::exception&) {
    return Status::InvalidArgument(
        StrCat("SET ", set.key, ": '", value_text, "' is not an integer"));
  }
  // Range validation lives here, at the protocol layer: an invalid SET is
  // rejected before any session state could be half-applied.
  if (set.key == "timeout_ms") {
    if (set.value > 86400000) {
      return Status::InvalidArgument("timeout_ms above 86400000 (one day)");
    }
    // Every negative value means "no deadline"; normalize to -1 so the
    // session's int never receives a value it cannot hold.
    if (set.value < 0) set.value = -1;
  } else if (set.key == "max_rows") {
    if (set.value < 0) {
      return Status::InvalidArgument("max_rows must be >= 0");
    }
  } else if (set.key == "memory_budget") {
    if (set.value < 0) {
      return Status::InvalidArgument(
          "memory_budget must be >= 0 bytes (0 = unlimited)");
    }
  } else {
    return Status::InvalidArgument(
        StrCat("unknown setting '", set.key,
               "' (expected timeout_ms, max_rows or memory_budget)"));
  }
  return set;
}

std::string SanitizeMessage(std::string message) {
  std::replace(message.begin(), message.end(), '\n', ' ');
  std::replace(message.begin(), message.end(), '\r', ' ');
  return message;
}

std::string FormatError(const Status& status) {
  return StrCat("ERR ", StatusCodeName(status.code()), " ",
                SanitizeMessage(status.message()));
}

std::string FormatResultHeader(const std::string& predicate,
                               std::size_t arity, std::size_t rows,
                               bool truncated) {
  return StrCat("RESULT ", predicate, "/", arity, " rows=", rows,
                " truncated=", truncated ? 1 : 0);
}

std::string FormatRow(TupleView row) {
  std::string out;
  // Sized for the longest int64, INT64_MIN: a sign and 19 digits.
  char digits[std::numeric_limits<Value>::digits10 + 2];
  for (std::size_t i = 0; i < row.arity(); ++i) {
    if (i > 0) out += ' ';
    const std::to_chars_result written =
        std::to_chars(digits, digits + sizeof(digits), row[i]);
    out.append(digits, written.ptr);
  }
  return out;
}

}  // namespace linrec
