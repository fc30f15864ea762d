// The untraced end-to-end run. Each run sets up kSetups fresh daemons
// (setup_s is their median), then drives the last one in a closed loop:
// every connection sends its next request only after the previous reply's
// last byte has arrived. Latency is timed from the first request byte sent
// to the reply's terminator received; the oracle checks each reply after
// that, outside the timed span, and the run's clock counts busy time only.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "client.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Daemons set up before the measured phase.
constexpr int kSetups = 10;
/// Equal busy-time blocks of a measured phase on one daemon.
constexpr int kBlocks = 20;
/// The fewest daemons (and so blocks) a measured phase that replaces its
/// daemons runs.
constexpr int kMinDaemons = 5;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

/// Checks an INSERT/DELETE reply: its prefix, the tuple count the oracle
/// expects under `count_key`, and views= (1 iff the view changed).
std::string CheckUpdate(const std::string& reply, const std::string& prefix,
                        const char* count_key, std::size_t expected) {
  if (reply.rfind(prefix, 0) != 0) return "replied " + FirstLine(reply);
  std::size_t count = 0;
  std::size_t views = 0;
  if (!ReplyField(reply, count_key, &count) ||
      !ReplyField(reply, "views", &views)) {
    return "malformed reply " + FirstLine(reply);
  }
  if (count != expected) {
    return std::string(count_key) + "=" + std::to_string(count) +
           ", the oracle expects " + std::to_string(expected);
  }
  if (views != (expected > 0 ? 1u : 0u)) return "views=" + std::to_string(views);
  return "";
}

/// One session_churn op on its own connection: LOAD, one full goal, QUIT.
void RunSession(int port, const Op& op, Samples* s, std::string* reply_out) {
  const Clock::time_point entry = Clock::now();
  const std::vector<Edge> edges = SessionEdges(op.session_seed);
  const std::string load = "LOAD\n" + ProgramText(edges) + "END\n";
  const std::string goal = std::string(kFullGoalLine) + "\n";
  const Oracle oracle(ShapeOf(Workload::kSessionChurn).nodes, edges);

  std::string load_reply;
  std::string goal_reply;
  std::string bye;
  Connection conn;
  const Clock::time_point t0 = Clock::now();
  bool io = conn.Open(port);
  const Clock::time_point t_load = Clock::now();
  io = io && conn.Send(load) && conn.Read(&load_reply);
  const Clock::time_point t1 = Clock::now();
  io = io && conn.Send(goal) && conn.Read(&goal_reply);
  const Clock::time_point t2 = Clock::now();
  io = io && conn.Send("QUIT\n") && conn.Read(&bye);
  conn.Close();
  const Clock::time_point t3 = Clock::now();
  s->busy_s += Seconds(t3 - t0);

  const std::string where = "session " + std::to_string(op.session_seed);
  if (!io) {
    s->Fail(where + ": connection lost");
  } else {
    s->session.push_back(Ms(t0, t3));
    s->load.push_back(Ms(t_load, t1));
    s->query.push_back(Ms(t1, t2));
    s->reply_bytes += load_reply.size() + goal_reply.size() + bye.size();
    std::size_t rows = 0;
    std::string why;
    if (load_reply != LoadReply(edges.size())) {
      why = "LOAD replied " + FirstLine(load_reply);
    } else if (bye != "OK bye\n") {
      why = "QUIT replied " + FirstLine(bye);
    } else {
      why = oracle.CheckGoal(goal_reply, -1, &rows);
    }
    s->reply_rows += rows;
    if (!why.empty()) s->Fail(where + ": " + why);
    if (reply_out != nullptr) *reply_out = load_reply + goal_reply + bye;
  }
  s->client_s += Seconds(Clock::now() - entry) - Seconds(t3 - t0);
}

/// Runs one block on `client`'s daemon: lane i drives streams[i] in a
/// closed loop on its own thread, until `done` holds for its samples.
/// Returns the lanes' samples merged, with busy_s the lanes' mean (lanes
/// run side by side).
template <typename Done>
Samples RunBlock(Client& client, const std::vector<OpStream*>& streams,
                 Done done) {
  std::vector<Samples> lanes(streams.size());
  auto drive = [&client, &streams, &lanes, &done](std::size_t lane) {
    while (!done(lanes[lane])) {
      RunOp(client, streams[lane]->Next(), &lanes[lane], nullptr);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t lane = 1; lane < streams.size(); ++lane) {
    threads.emplace_back(drive, lane);
  }
  drive(0);
  for (std::thread& t : threads) t.join();
  Samples block;
  for (const Samples& lane : lanes) block.Merge(lane);
  block.busy_s /= static_cast<double>(streams.size());
  return block;
}

}  // namespace

std::string LoadReply(std::size_t facts) {
  return "OK loaded rules=2 facts=" + std::to_string(facts) + " queries=0\n";
}

void Samples::Fail(const std::string& why) {
  ++failed;
  if (errors.size() < 10) errors.push_back(why);
}

void Samples::Merge(const Samples& other) {
  for (auto [to, from] :
       {std::pair{&query, &other.query}, std::pair{&insert, &other.insert},
        std::pair{&remove, &other.remove}, std::pair{&load, &other.load},
        std::pair{&session, &other.session}}) {
    to->insert(to->end(), from->begin(), from->end());
  }
  attempted += other.attempted;
  failed += other.failed;
  reply_bytes += other.reply_bytes;
  reply_rows += other.reply_rows;
  busy_s += other.busy_s;
  client_s += other.client_s;
  for (const std::string& e : other.errors) {
    if (errors.size() < 10) errors.push_back(e);
  }
}

Client::Client(const Config& c)
    : config(c),
      shape(ShapeOf(c.workload)),
      stream(c.workload, c.seed),
      oracle(shape.nodes, stream.initial_edges()) {}

std::unique_ptr<Client> SetUp(const Config& config, Samples* setup,
                              std::string* error) {
  auto client = std::make_unique<Client>(config);
  const bool single = client->shape.connections == 1;
  std::vector<std::pair<std::string, std::string>> script;
  if (single) {
    const std::vector<Edge>& edges = client->stream.initial_edges();
    script.emplace_back("LOAD\n" + ProgramText(edges) + "END\n",
                        LoadReply(edges.size()));
    if (client->shape.materialize) {
      // A full goal with the reply capped at zero rows materializes the
      // view without shipping it over the socket.
      script.emplace_back("SET max_rows 0\n", "OK set max_rows=0\n");
      script.emplace_back(std::string(kFullGoalLine) + "\n",
                          "RESULT tc/2 rows=0 truncated=1\n.\n");
      script.emplace_back("SET max_rows 100000\n",
                          "OK set max_rows=100000\n");
    }
  }

  const double client_before = setup->client_s;
  const Clock::time_point t0 = Clock::now();
  client->daemon = Daemon::Start(config.linrecd, config.workers, error);
  if (client->daemon == nullptr) return nullptr;
  if (single && !client->conn.Open(client->daemon->port())) {
    *error = "cannot connect to linrecd";
    return nullptr;
  }
  for (const auto& [request, expected] : script) {
    std::string reply;
    if (!client->conn.Send(request) || !client->conn.Read(&reply)) {
      *error = "linrecd closed the connection during set-up";
      return nullptr;
    }
    ++setup->attempted;
    if (reply != expected) {
      setup->Fail("set-up: expected " + FirstLine(expected) + ", got " +
                  FirstLine(reply));
    }
  }
  for (int i = 0; i < client->shape.warmup_ops; ++i) {
    RunOp(*client, client->stream.Next(), setup, nullptr);
  }
  client->setup_s =
      Seconds(Clock::now() - t0) - (setup->client_s - client_before);
  return client;
}

bool ShutDown(Client& client) {
  if (!client.conn.ok() && !client.conn.Open(client.daemon->port())) {
    return false;
  }
  return client.daemon->Shutdown(client.conn);
}

void RunOp(Client& client, const Op& op, Samples* s, std::string* reply_out) {
  ++s->attempted;
  if (op.kind == OpKind::kSession) {
    RunSession(client.daemon->port(), op, s, reply_out);
    return;
  }
  const Clock::time_point entry = Clock::now();
  const std::string line = RequestLine(op);
  const std::string request = line + "\n";
  std::string reply;
  const Clock::time_point t0 = Clock::now();
  const bool io = client.conn.Send(request) && client.conn.Read(&reply);
  const Clock::time_point t1 = Clock::now();
  s->busy_s += Seconds(t1 - t0);
  if (!io) {
    s->Fail(line + ": connection lost");
    s->client_s += Seconds(Clock::now() - entry) - Seconds(t1 - t0);
    return;
  }
  const double ms = Ms(t0, t1);
  s->reply_bytes += reply.size();
  std::size_t rows = 0;
  std::string why;
  switch (op.kind) {
    case OpKind::kQuery:
      s->query.push_back(ms);
      why = client.oracle.CheckGoal(reply, op.edge.first, &rows);
      break;
    case OpKind::kInsert:
      s->insert.push_back(ms);
      why = CheckUpdate(reply, "OK insert applied=1 ", "added",
                        client.oracle.Insert(op.edge));
      break;
    case OpKind::kDelete:
      s->remove.push_back(ms);
      why = CheckUpdate(reply, "OK delete removed=1 ", "retracted",
                        client.oracle.Delete(op.edge));
      break;
    case OpKind::kSession:
      break;
  }
  s->reply_rows += rows;
  if (!why.empty()) s->Fail(line + ": " + why);
  if (reply_out != nullptr) *reply_out = std::move(reply);
  s->client_s += Seconds(Clock::now() - entry) - Seconds(t1 - t0);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void ReportErrors(const Samples& samples) {
  for (const std::string& e : samples.errors) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  }
}

int RunEndToEnd(const Config& config) {
  Samples setup;
  std::vector<double> setup_times;
  std::unique_ptr<Client> client;
  // Starts a fresh daemon made ready for the workload; false on an
  // infrastructure failure.
  auto fresh_daemon = [&config, &setup, &setup_times, &client] {
    std::string error;
    client = SetUp(config, &setup, &error);
    if (client == nullptr) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return false;
    }
    setup_times.push_back(client->setup_s);
    return true;
  };
  for (int i = 0; i < kSetups; ++i) {
    if (!fresh_daemon()) return 1;
    if (i + 1 < kSetups && !ShutDown(*client)) {
      setup.Fail("linrecd did not shut down cleanly");
    }
  }

  // The measured phase, in blocks.
  const Shape shape = client->shape;
  Samples measured;
  std::vector<Samples> blocks;
  std::vector<double> peak_rss_mb;
  if (shape.sessions_per_daemon == 0) {
    // One daemon and one connection (update_mix's FIFO lives in the set-up
    // stream); kBlocks blocks of equal busy time.
    const std::vector<OpStream*> streams{&client->stream};
    const double block_s = config.seconds / kBlocks;
    while (blocks.size() < static_cast<std::size_t>(kBlocks)) {
      blocks.push_back(RunBlock(*client, streams, [block_s](const Samples& s) {
        return s.busy_s >= block_s;
      }));
    }
    peak_rss_mb.push_back(client->daemon->PeakRssMb());
    if (!ShutDown(*client)) measured.Fail("linrecd did not shut down cleanly");
  } else {
    // One block per daemon: each serves the same number of sessions, so
    // VmHWM compares equal work, and daemons are replaced until the busy
    // time is spent. Their set-ups count in setup_s too.
    std::vector<OpStream> own;
    std::vector<OpStream*> streams;
    own.reserve(static_cast<std::size_t>(shape.connections));
    for (int lane = 0; lane < shape.connections; ++lane) {
      own.emplace_back(config.workload, config.seed, lane + 1);
      streams.push_back(&own.back());
    }
    const std::size_t quota = shape.sessions_per_daemon / streams.size();
    double busy_s = 0;
    while (blocks.size() < static_cast<std::size_t>(kMinDaemons) ||
           busy_s < config.seconds) {
      if (!blocks.empty() && !fresh_daemon()) return 1;
      blocks.push_back(RunBlock(*client, streams, [quota](const Samples& s) {
        return s.attempted >= quota;
      }));
      busy_s += blocks.back().busy_s;
      peak_rss_mb.push_back(client->daemon->PeakRssMb());
      if (!ShutDown(*client)) {
        measured.Fail("linrecd did not shut down cleanly");
      }
    }
  }

  std::vector<double> query_p50, query_tail;
  for (const Samples& block : blocks) {
    query_p50.push_back(Quantile(block.query, 0.5));
    query_tail.push_back(Quantile(block.query, shape.tail_quantile));
    measured.Merge(block);
  }

  std::printf(
      "# samples {\"workload\": \"%s\", \"seed\": %llu, \"connections\": %d, "
      "\"setups\": %zu, \"blocks\": %zu, \"sessions_per_daemon\": %zu, "
      "\"query\": %zu, \"insert\": %zu, \"delete\": %zu, \"load\": %zu, "
      "\"session\": %zu, \"tail_quantile\": %g}\n",
      WorkloadName(config.workload),
      static_cast<unsigned long long>(config.seed), shape.connections,
      setup_times.size(), blocks.size(), shape.sessions_per_daemon,
      measured.query.size(), measured.insert.size(), measured.remove.size(),
      measured.load.size(), measured.session.size(), shape.tail_quantile);
  ReportErrors(setup);
  ReportErrors(measured);
  // The latencies are the mean of their per-block values, and ops_per_s
  // counts the whole phase. On a shared host, noise comes in episodes of
  // seconds to minutes that slow every op of the daemon by 1.4-1.5x. A
  // mean moves with the share of a run spent slowed; a median of blocks
  // jumps by the whole factor when that share crosses one half, and moved
  // by 26% between two sets of runs of the same code. setup_s is the
  // median of its per-daemon values.
  PrintResult(setup.failed + measured.failed == 0,
              setup.attempted + measured.attempted,
              setup.failed + measured.failed,
              {{"setup_s", Quantile(setup_times, 0.5), "s"},
               {"ops_per_s",
                static_cast<double>(measured.attempted - measured.failed) /
                    measured.busy_s,
                "1/s"},
               {"query_p50_ms", Mean(query_p50), "ms"},
               {"query_tail_ms", Mean(query_tail), "ms"},
               {"peak_rss_mb", Quantile(peak_rss_mb, 0.5), "MB"}});
  return 0;
}

}  // namespace perfbench
