// The three BChainBench-E2E workloads as run by the e2ebench binary. run.py
// owns everything around them: the build, the sebdb_server processes, the
// data directories and the final metric selection.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sebdb {
namespace e2e {

/// --key=value command-line flags.
struct Args {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& def = "") const;
  int64_t GetInt(const std::string& key, int64_t def) const;
};

/// What one workload run measured and whether its outputs were right.
struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  /// Operation accounting: attempted = acked + refused + timed_out +
  /// errored (+ reads whose result was wrong, which count as errored).
  int64_t attempted = 0;
  int64_t acked = 0;
  int64_t refused = 0;    // ResourceExhausted: the server shed the request
  int64_t timed_out = 0;  // server-side budget expiry or no reply at all
  int64_t unanswered = 0; // the subset of timed_out that never got a reply
  int64_t errored = 0;
  std::map<std::string, double> metrics;

  void Fail(const std::string& why);
  void Set(const std::string& name, double value) { metrics[name] = value; }
  std::string ToJson() const;
};

/// Writes a preloaded chain (--kind=schema|rw|sql, --dir=...) and prints a
/// JSON line describing it. Returns the process exit code.
int Preload(const Args& args);

void RunIngest(const Args& args, Report* report);
void RunReadWrite(const Args& args, Report* report);
void RunSqlQuery(const Args& args, Report* report);

}  // namespace e2e
}  // namespace sebdb
