// linrecd — the linrec front door. One binary, three fronts over one
// protocol (src/server/protocol.h):
//
//   linrecd --file script.lr          run a script, replies to stdout
//   linrecd --stdin                   line REPL on stdin/stdout (default)
//   linrecd --port 0                  TCP on 127.0.0.1 (0 = ephemeral;
//                                     prints "LISTENING <port>" when ready,
//                                     serves a thread per connection until
//                                     a client sends SHUTDOWN)
//
// Limits: --timeout-ms N, --max-rows N, --max-pending N, --workers N,
// --memory-budget BYTES (global ledger), --query-memory-budget BYTES
// (per-query default; sessions override with SET memory_budget),
// --retry-after MS (backoff hint in Unavailable replies). --timeout-ms,
// --max-rows and --query-memory-budget accept exactly what the matching
// SET accepts. --workers sizes the worker lanes of pipelined query
// batches (0 = one per hardware thread); every goal and every round is
// serial, so replies do not depend on it. A malformed or out-of-range
// value prints the usage and exits 2.
//
// Fault injection (deterministic, for smoke tests):
//   --fault <site>:<n>      fire an injected fault on the nth hit of the
//                           named site (common/fault.h FaultSiteName; an
//                           unknown name lists them all)
//   --fault-seed <s>:<p>    seeded schedule: every site fires wherever
//                           hash(seed, site, hit) % period == 0

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <list>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "server/protocol.h"
#include "server/server.h"

namespace linrec {
namespace {

bool IsQueryLine(const std::string& line) {
  std::size_t i = 0;
  while (i < line.size() &&
         std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  return line.compare(i, 2, "?-") == 0;
}

/// Feeds `lines` to the server in order, batching maximal runs of
/// consecutive "?-" lines (outside LOAD blocks) into one pipelined
/// submission. Replies stream through `write`.
Server::Action ProcessLines(Server& server, Session& session,
                            const std::vector<std::string>& lines,
                            const std::function<void(const std::string&)>& write) {
  std::vector<std::string> replies;
  std::size_t i = 0;
  while (i < lines.size()) {
    replies.clear();
    if (!session.in_load() && IsQueryLine(lines[i])) {
      std::vector<std::string> run;
      while (i < lines.size() && IsQueryLine(lines[i])) {
        run.push_back(lines[i]);
        ++i;
      }
      server.SubmitQueryLines(session, run, &replies);
      for (const std::string& reply : replies) write(reply);
      continue;
    }
    Server::Action action = server.HandleLine(session, lines[i], &replies);
    ++i;
    for (const std::string& reply : replies) write(reply);
    if (action != Server::Action::kContinue) return action;
  }
  return Server::Action::kContinue;
}

int RunScript(Server& server, std::istream& in, std::ostream& out,
              bool interactive) {
  auto session = server.NewSession();
  auto write = [&](const std::string& reply) { out << reply << "\n"; };
  std::string line;
  if (interactive) {
    // REPL: one line at a time so replies appear promptly.
    while (std::getline(in, line)) {
      Server::Action action =
          ProcessLines(server, *session, {line}, write);
      out.flush();
      if (action != Server::Action::kContinue) break;
    }
    return 0;
  }
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ProcessLines(server, *session, lines, write);
  out.flush();
  return 0;
}

struct ListenState {
  int listen_fd = -1;
  std::atomic<bool> shutting_down{false};
};

void ServeConnection(Server& server, ListenState& state, int fd) {
  auto session = server.NewSession();
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !state.shutting_down.load()) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    // Extract every complete line; a pipelined client's run of "?-" lines
    // lands in one chunk and batches through SubmitQueryLines.
    std::vector<std::string> lines;
    std::size_t begin = 0;
    for (;;) {
      std::size_t end = buffer.find('\n', begin);
      if (end == std::string::npos) break;
      std::string line = buffer.substr(begin, end - begin);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      lines.push_back(std::move(line));
      begin = end + 1;
    }
    buffer.erase(0, begin);
    if (lines.empty()) continue;
    std::string reply_bytes;
    auto write = [&](const std::string& reply) {
      reply_bytes += reply;
      reply_bytes += '\n';
    };
    Server::Action action = ProcessLines(server, *session, lines, write);
    std::size_t sent = 0;
    while (sent < reply_bytes.size()) {
      // Injected socket fault: behave exactly like a peer that vanished
      // mid-reply — drop this connection, leave the daemon serving.
      if (FaultFires(FaultSite::kSocketWrite)) {
        open = false;
        break;
      }
      ssize_t w = ::send(fd, reply_bytes.data() + sent,
                         reply_bytes.size() - sent, 0);
      if (w <= 0) {
        open = false;
        break;
      }
      sent += static_cast<std::size_t>(w);
    }
    if (action == Server::Action::kCloseSession) break;
    if (action == Server::Action::kShutdown) {
      state.shutting_down.store(true);
      // Wake the accept loop.
      ::shutdown(state.listen_fd, SHUT_RDWR);
      break;
    }
  }
  ::close(fd);
}

int RunSocket(Server& server, int port) {
  ListenState state;
  state.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (state.listen_fd < 0) {
    std::cerr << "socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  int reuse = 1;
  ::setsockopt(state.listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse,
               sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(state.listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    std::cerr << "bind: " << std::strerror(errno) << "\n";
    ::close(state.listen_fd);
    return 1;
  }
  if (::listen(state.listen_fd, 64) < 0) {
    std::cerr << "listen: " << std::strerror(errno) << "\n";
    ::close(state.listen_fd);
    return 1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(state.listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  std::cout << "LISTENING " << ntohs(addr.sin_port) << std::endl;

  // One thread per connection. A finished thread keeps its stack mapped
  // until joined, so after spawning each new connection's thread the
  // accept loop joins every finished one: memory stays bounded by the
  // open connections, not by the sessions served, and a thread still
  // exiting never delays the new session. std::list keeps each `done`
  // flag at a fixed address for its thread to set.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Connection> connections;
  auto reap = [&connections] {
    for (auto it = connections.begin(); it != connections.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };
  while (!state.shutting_down.load()) {
    int fd = ::accept(state.listen_fd, nullptr, nullptr);
    if (fd < 0) break;
    if (state.shutting_down.load()) {
      ::close(fd);
      break;
    }
    Connection& c = connections.emplace_back();
    c.thread = std::thread([&server, &state, fd, &c] {
      ServeConnection(server, state, fd);
      c.done.store(true, std::memory_order_release);
    });
    reap();
  }
  for (Connection& c : connections) c.thread.join();
  ::close(state.listen_fd);
  std::cout << "SHUTDOWN complete" << std::endl;
  return 0;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--file <script> | --stdin | --port <n>]\n"
               "       [--timeout-ms <n>] [--max-rows <n>]"
               " [--max-pending <n>] [--workers <n>]\n"
               "       [--memory-budget <bytes>]"
               " [--query-memory-budget <bytes>]\n"
               "       [--retry-after <ms>]\n"
               "       [--fault <site>:<n>] [--fault-seed <seed>:<period>]\n";
  return 2;
}

/// Parses all of `text` as a base-10 integer in [min, max]. An empty
/// string, a sign an unsigned field cannot hold, a stray character or an
/// out-of-range value all fail.
template <typename Int>
bool ParseWhole(const char* text, Int min, Int max, Int* out) {
  const char* end = text + std::strlen(text);
  Int value{};
  const std::from_chars_result parsed = std::from_chars(text, end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end || value < min ||
      value > max) {
    return false;
  }
  *out = value;
  return true;
}

/// Parses a session default the way `SET <key> <value>` does, so the flag
/// and the verb share one range check (ParseSetArgs).
template <typename Field>
bool ParseSetDefault(const char* key, const char* text, Field* out) {
  Result<SetArgs> set = ParseSetArgs(std::string(key) + " " + text);
  if (!set.ok()) {
    std::cerr << set.status().message() << "\n";
    return false;
  }
  *out = static_cast<Field>(set->value);
  return true;
}

/// Parses "--fault pool_growth:3" / "--fault-seed 42:1000" specs and arms
/// the process-wide injector. Returns false (after a diagnostic) on a
/// malformed spec or unknown site.
bool ArmFault(const std::string& spec, bool seeded) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::size_t colon = spec.find(':');
  std::uint64_t n = 0;
  if (colon == std::string::npos ||
      !ParseWhole(spec.c_str() + colon + 1, std::uint64_t{1}, kMax, &n)) {
    std::cerr << "fault spec '" << spec << "' is not <"
              << (seeded ? "seed" : "site") << ">:<positive count>\n";
    return false;
  }
  const std::string head = spec.substr(0, colon);
  if (seeded) {
    std::uint64_t seed = 0;
    if (!ParseWhole(head.c_str(), std::uint64_t{0}, kMax, &seed)) {
      std::cerr << "fault seed '" << head << "' is not an unsigned integer\n";
      return false;
    }
    FaultInjector::Instance().ArmSeeded(seed, n);
    return true;
  }
  FaultSite site;
  if (!ParseFaultSite(head.c_str(), &site)) {
    std::cerr << "unknown fault site '" << head << "' (expected";
    for (int i = 0; i < kFaultSiteCount; ++i) {
      std::cerr << (i == 0 ? " " : ", ")
                << FaultSiteName(static_cast<FaultSite>(i));
    }
    std::cerr << ")\n";
    return false;
  }
  FaultInjector::Instance().ArmAt(site, n);
  return true;
}

}  // namespace
}  // namespace linrec

int main(int argc, char** argv) {
  using namespace linrec;
  enum class Mode { kStdin, kFile, kSocket };
  Mode mode = Mode::kStdin;
  std::string file;
  int port = 0;
  ServerLimits limits;
  EngineOptions engine_options;
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr std::size_t kSizeMax = std::numeric_limits<std::size_t>::max();

  // Every value is checked before the daemon binds a port: a malformed one
  // prints the usage and exits 2.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stdin") {
      mode = Mode::kStdin;
      continue;
    }
    const char* value = i + 1 < argc ? argv[++i] : nullptr;
    if (value == nullptr) return Usage(argv[0]);
    bool ok = true;
    if (arg == "--file") {
      mode = Mode::kFile;
      file = value;
    } else if (arg == "--port") {
      mode = Mode::kSocket;
      ok = ParseWhole(value, 0, 65535, &port);
    } else if (arg == "--timeout-ms") {
      ok = ParseSetDefault("timeout_ms", value, &limits.default_timeout_ms);
    } else if (arg == "--max-rows") {
      ok = ParseSetDefault("max_rows", value, &limits.default_max_rows);
    } else if (arg == "--query-memory-budget") {
      ok = ParseSetDefault("memory_budget", value,
                           &limits.default_query_memory_budget);
    } else if (arg == "--max-pending") {
      ok = ParseWhole(value, std::size_t{1}, kSizeMax, &limits.max_pending);
    } else if (arg == "--workers") {
      ok = ParseWhole(value, 0, kIntMax, &engine_options.parallel_workers);
    } else if (arg == "--memory-budget") {
      ok = ParseWhole(value, std::size_t{0}, kSizeMax,
                      &limits.global_memory_budget);
    } else if (arg == "--retry-after") {
      ok = ParseWhole(value, 0, kIntMax, &limits.retry_after_ms);
    } else if (arg == "--fault" || arg == "--fault-seed") {
      ok = ArmFault(value, /*seeded=*/arg == "--fault-seed");
    } else {
      return Usage(argv[0]);
    }
    if (!ok) {
      std::cerr << "invalid value '" << value << "' for " << arg << "\n";
      return Usage(argv[0]);
    }
  }

  Server server(limits, engine_options);
  switch (mode) {
    case Mode::kFile: {
      std::ifstream in(file);
      if (!in) {
        std::cerr << "cannot open " << file << "\n";
        return 1;
      }
      return RunScript(server, in, std::cout, /*interactive=*/false);
    }
    case Mode::kStdin:
      return RunScript(server, std::cin, std::cout, /*interactive=*/true);
    case Mode::kSocket:
      return RunSocket(server, port);
  }
  return 0;
}
