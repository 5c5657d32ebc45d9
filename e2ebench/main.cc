// e2ebench: load generator and checker of BChainBench-E2E.
//
//   e2ebench preload    --kind=schema|rw|sql --dir=D [--seed=N]
//   e2ebench ingest     --config=cluster.conf --seed=N --seconds=S [--trace=1]
//   e2ebench read_write --config=cluster.conf --seed=N --seconds=S
//                       --reader-counts=c0,...,c23 [--local-chain=D] [--trace=1]
//   e2ebench sql_query  --chain=D --seed=N --seconds=S [--trace=1]
//
// Each workload prints one JSON report as its last line (see Report).
// --trace-out=F writes the traced run's spans there, one JSON per line.
// run.py builds this binary, starts the sebdb_server cluster and turns the
// report into the benchmark's result line.
#include <cstdio>
#include <cstring>
#include <string>

#include "trace.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace sebdb::e2e;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s preload|ingest|read_write|sql_query "
                         "[--key=value ...]\n", argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  Args args;
  for (int i = 2; i < argc; i++) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    if (std::strncmp(arg, "--", 2) != 0 || eq == nullptr) {
      std::fprintf(stderr, "bad flag: %s\n", arg);
      return 2;
    }
    args.values[std::string(arg + 2, eq)] = eq + 1;
  }
  if (mode == "preload") return Preload(args);

  if (args.GetInt("trace", 0) != 0) Tracer::Get().Enable(0);
  Report report;
  if (mode == "ingest") {
    RunIngest(args, &report);
  } else if (mode == "read_write") {
    RunReadWrite(args, &report);
  } else if (mode == "sql_query") {
    RunSqlQuery(args, &report);
  } else {
    std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
    return 2;
  }
  if (Tracer::Get().enabled()) {
    for (const auto& [name, summary] : Tracer::Get().Summarize()) {
      report.Set("span." + name + ".count", static_cast<double>(summary.count));
      report.Set("span." + name + ".p50_us", summary.p50_us);
      report.Set("span." + name + ".self_p50_us", summary.self_p50_us);
    }
    const std::string out = args.Get("trace-out");
    if (!out.empty() && !Tracer::Get().WriteJsonl(out)) {
      report.Fail("could not write spans to " + out);
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
