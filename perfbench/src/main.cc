// perfbench — the linrecd benchmark client and per-layer tracer.
//
//   perfbench --workload <point_lookup|fanout_read|update_mix|session_churn>
//             --seed <n> --seconds <s> --trace <0|1> --linrecd <path>
//             [--workers <n>]
//
// --trace 0 is the untraced end-to-end run, --trace 1 the per-layer ledger
// (perfbench/README.md). Prints '#' context lines, then the JSON result
// line, and exits 0 once a result is printed.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "client.h"

int main(int argc, char** argv) {
  using perfbench::Config;
  Config config;
  int trace = -1;
  bool have_workload = false;
  bool bad = argc % 2 == 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = perfbench::ParseWorkload(value, &config.workload);
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--linrecd") {
      config.linrecd = value;
    } else if (flag == "--workers") {
      config.workers = std::atoi(value.c_str());
    } else {
      bad = true;
    }
  }
  if (bad || !have_workload || (trace != 0 && trace != 1) ||
      config.linrecd.empty() || config.seconds <= 0 || config.workers < 1) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --linrecd <path> [--workers <n>]\n",
                 argv[0]);
    return 2;
  }
  // A daemon that dies mid-reply must surface as a failed op, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  return trace == 1 ? perfbench::RunTraced(config)
                    : perfbench::RunEndToEnd(config);
}
