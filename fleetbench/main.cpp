// fleetbench: end-to-end and per-layer benchmark of the sharded fleet engine.
//
//   fleetbench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-dir DIR] [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics on untraced runs: one warm-up
// run, then rounds of timed runs until S seconds of wall time have passed
// (at least 5 rounds), then 7 x 21 set-ups. Each timed run and each batch of
// set-ups runs in a forked child (see `in_children`); a serial workload runs
// one replica per CPU in each round, and children that run one thread are
// pinned to a CPU each (see `pin_to_cpu`). Runs are timed in wall time less
// the time the hypervisor stole from their CPUs (see `stolen_s`), set-ups in
// CPU time. --trace 1 measures the per-layer metrics: harvest runs
// for the probe inputs, then untraced / traced run pairs for half of S (at
// least 3 pairs), each traced run's Chrome trace written to DIR, then the
// layer probes for the other half. Every run's outputs are checked
// (workloads.cpp).
//
// Output: a provenance line, one line per metric, and — as the last line —
// the JSON result {"correct", "attempted", "failed", "metrics"}, plus with
// --trace 1 a "traces" list of the written trace files for run.py.
#include <sched.h>
#include <sys/personality.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "fleetbench.hpp"
#include "util/trace.hpp"

namespace {

using namespace fleetbench;
namespace vc = vtm::core;

constexpr int kMinTimedRounds = 5;
constexpr int kSetupChildren = 32;
constexpr std::size_t kSetupsPerChild = 15;
constexpr int kMinTracedPairs = 3;

/// Run-outcome bookkeeping shared by every run of one invocation.
struct session {
  const workload* w = nullptr;
  int attempted = 0;
  int failed = 0;
  bool have_reference = false;
  run_outcome reference;  ///< The invocation's first run of the workload.

  /// Check one run of `checked_as` (the invocation's workload, or a harvest
  /// variant when `compare` is false) and count it.
  void account(const workload& checked_as, const run_outcome& outcome,
               bool compare) {
    ++attempted;
    const auto failures = check_outcome(
        checked_as, outcome,
        compare && have_reference ? &reference : nullptr);
    if (compare && !have_reference) {
      reference = outcome;
      have_reference = true;
    }
    if (failures.empty()) return;
    ++failed;
    for (const auto& f : failures)
      std::fprintf(stderr, "fleetbench: %s run %d: %s\n",
                   checked_as.name.c_str(), attempted, f.c_str());
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Maximum RSS of this process, which ran the warm-up run.
double peak_rss_mb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Run `fn(k)` for k = 0 .. n-1, each in its own forked child, all at
/// once, and return the trivially copyable values they produce, in order.
/// Each child touches its own physical pages. On the reference VM one
/// process's memory placement sets its speed for its whole life: set-up CPU
/// time sat at about 0.27 ms in some processes and 0.49 ms in others, with
/// the same seed and no address randomization. Spreading the samples of a
/// run over many children averages those modes instead of drawing one.
/// Call only while no other thread runs, that is between runs, after every
/// coordinator has joined its pool.
template <typename T, typename Fn>
std::vector<T> in_children(int n, Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::fflush(stdout);
  std::fflush(stderr);
  struct child {
    pid_t pid;
    int fd;
  };
  std::vector<child> children;
  bool ok = true;
  for (int k = 0; k < n && ok; ++k) {
    int fds[2];
    if (pipe(fds) != 0) {
      ok = false;
      break;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      ok = false;
      break;
    }
    if (pid == 0) {
      close(fds[0]);
      int code = 1;
      try {
        const T value = fn(k);
        if (write(fds[1], &value, sizeof value) ==
            static_cast<ssize_t>(sizeof value))
          code = 0;
      } catch (const std::exception& error) {
        std::fprintf(stderr, "fleetbench: %s\n", error.what());
      }
      _exit(code);  // skip atexit handlers and the parent's stdio buffers
    }
    close(fds[1]);
    children.push_back({pid, fds[0]});
  }
  std::vector<T> values(children.size());
  for (std::size_t k = 0; k < children.size(); ++k) {
    const bool got = read(children[k].fd, &values[k], sizeof(T)) ==
                     static_cast<ssize_t>(sizeof(T));
    close(children[k].fd);
    int status = 0;
    while (waitpid(children[k].pid, &status, 0) < 0 && errno == EINTR) {
    }
    ok = ok && got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  if (!ok) throw std::runtime_error("a measurement child failed");
  return values;
}

/// One untraced run of the invocation's workload: set-up, run, tear-down.
run_outcome timed_run(session& s) {
  prepared_run run = prepare(*s.w);
  run_outcome outcome = execute(run, false);
  run.coordinator.reset();
  s.account(*s.w, outcome, true);
  return outcome;
}

/// Pin the calling process to the `k`-th (mod count) CPU it may run on.
/// A single thread takes the speed of the vCPU it lands on, and vCPUs of a
/// shared host differ by up to 20% at a time, so measurement children that
/// run one thread are spread over all of them. Best effort: on failure the
/// process stays unpinned.
void pin_to_cpu(int k) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  int pick = k % std::max(1, CPU_COUNT(&allowed));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || pick-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

/// The CPUs this process may run on.
cpu_set_t allowed_cpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  (void)sched_getaffinity(0, sizeof cpus, &cpus);
  return cpus;
}

/// Time the hypervisor has stolen from the CPUs in `cpus` since boot, as
/// the mean over those CPUs, in seconds (0 when /proc/stat is unreadable).
double stolen_s(const cpu_set_t& cpus) {
  std::ifstream stat("/proc/stat");
  const long ticks_per_s = sysconf(_SC_CLK_TCK);
  if (!stat || ticks_per_s <= 0) return 0.0;
  double ticks = 0.0;
  int counted = 0;
  std::string line;
  while (std::getline(stat, line)) {
    // "cpuN user nice system idle iowait irq softirq steal ..."
    if (line.size() < 4 || line.compare(0, 3, "cpu") != 0 || line[3] < '0' ||
        line[3] > '9')
      continue;
    std::istringstream fields(line.substr(3));
    int cpu = 0;
    double steal = 0.0;
    fields >> cpu;
    for (int k = 0; k < 8 && fields >> steal; ++k) {
    }
    if (!fields || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &cpus)) continue;
    ticks += steal;
    ++counted;
  }
  return counted > 0 ? ticks / counted / static_cast<double>(ticks_per_s)
                     : 0.0;
}

std::vector<metric> end_to_end(session& s, double seconds) {
  struct rep_result {
    double handovers_per_s;
    bool passed;
  };
  const std::size_t threads = s.w->base().shard_count;
  // A serial workload runs in rounds of one replica per CPU, each pinned to
  // its own CPU, all at once: every round samples every vCPU at the same
  // moment, and the machine is as busy as under the sharded workloads.
  const cpu_set_t all_cpus = allowed_cpus();
  const int replicas = threads == 1 ? std::max(1, CPU_COUNT(&all_cpus)) : 1;
  std::vector<double> throughput;
  const auto start = clock_type::now();
  // Warm-up in this process: it fills the heap and caches every child
  // inherits, and it is the reference the children's outputs must match.
  (void)timed_run(s);
  for (int rounds = 0;
       rounds < kMinTimedRounds || seconds_since(start) < seconds; ++rounds) {
    const auto reps = in_children<rep_result>(replicas, [&s, replicas,
                                                          threads](int k) {
      if (replicas > 1) pin_to_cpu(k);
      const cpu_set_t cpus = allowed_cpus();
      prepared_run run = prepare(*s.w);
      const double stolen_before_s = stolen_s(cpus);
      const run_outcome outcome = execute(run, false);
      const double stolen_run_s = stolen_s(cpus) - stolen_before_s;
      run.coordinator.reset();
      const auto failures = check_outcome(*s.w, outcome, &s.reference);
      for (const auto& f : failures)
        std::fprintf(stderr, "fleetbench: %s: %s\n", s.w->name.c_str(),
                     f.c_str());
      // Wall time less what the hypervisor stole from the run's CPUs, but
      // never below a perfectly parallel split of the run's CPU time.
      const double busy_s =
          std::max(outcome.run_s - stolen_run_s,
                   outcome.run_cpu_s / static_cast<double>(threads));
      return rep_result{
          static_cast<double>(outcome.totals.handovers) / busy_s,
          failures.empty()};
    });
    for (const rep_result& rep : reps) {
      ++s.attempted;
      if (!rep.passed) ++s.failed;
      throughput.push_back(rep.handovers_per_s);
    }
  }
  // Set-up is timed in loops of its own, since set-up right after a run
  // sees a different allocator and cache state: the median of each child's
  // loop, averaged over the children, which visit the CPUs in turn.
  double setup_sum = 0.0;
  for (int child = 0; child < kSetupChildren; ++child)
    setup_sum += in_children<double>(1, [&s, child](int) {
                   pin_to_cpu(child);
                   std::vector<double> setups;
                   while (setups.size() < kSetupsPerChild)
                     setups.push_back(prepare(*s.w).setup_cpu_s);
                   return median(setups);
                 }).front();
  const auto& t = s.reference.totals;
  return {
      {"handovers_per_s", median(throughput), "1/s"},
      {"setup_s", setup_sum / kSetupChildren, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"on_time_handoff_share",
       1.0 - ratio(static_cast<double>(t.late_handoffs),
                   static_cast<double>(t.handovers)),
       "ratio"},
      {"check_pass_share",
       ratio(static_cast<double>(s.attempted - s.failed),
             static_cast<double>(s.attempted)),
       "ratio"},
  };
}

/// Probe inputs: the workload re-run with migration records on (and, for
/// joint-market workloads, cohorts); the oligopoly workload's cohorts come
/// from a joint-market run of the same fleet over the sellers' combined
/// capacity.
harvest collect_inputs(session& s) {
  harvest inputs;
  workload recorded = *s.w;
  recorded.name += "/harvest";
  recorded.base().record_migrations = true;
  const bool joint = recorded.base().mode == vc::market_mode::joint;
  recorded.base().record_cohorts = joint;
  {
    prepared_run run = prepare(recorded);
    run_outcome outcome = execute(run, true);
    s.account(recorded, outcome, false);
    inputs.records = std::move(outcome.totals.migrations);
    if (joint) inputs.cohorts = std::move(outcome.totals.cohorts);
  }
  if (!joint) {
    workload pooled = *s.w;
    pooled.name += "/joint-harvest";
    auto& config = pooled.base();
    double capacity = 0.0;
    for (const auto& msp : config.msps)
      capacity += msp.bandwidth_per_pool_mhz.value();
    config.mode = vc::market_mode::joint;
    config.msps.clear();
    config.bandwidth_per_pool_mhz = vtm::util::megahertz{capacity};
    config.record_cohorts = true;
    prepared_run run = prepare(pooled);
    run_outcome outcome = execute(run, true);
    s.account(pooled, outcome, false);
    inputs.cohorts = std::move(outcome.totals.cohorts);
  }
  return inputs;
}

/// One traced run's Chrome trace export, which run.py reduces.
struct trace_file {
  std::string path;
  double since_us = 0.0;  ///< Spans before this belong to set-up.
  double run_s = 0.0;     ///< The traced run's wall time.
};

std::vector<metric> per_layer(session& s, double seconds, std::uint64_t seed,
                              const std::string& trace_dir,
                              std::vector<trace_file>& traces) {
  const auto start = clock_type::now();
  const harvest inputs = collect_inputs(s);

  std::vector<double> untraced_wall;
  std::vector<double> untraced_cpu;
  std::vector<double> traced_cpu;
  for (int pairs = 0;
       pairs < kMinTracedPairs || seconds_since(start) < 0.5 * seconds;
       ++pairs) {
    const run_outcome untraced = timed_run(s);
    untraced_wall.push_back(untraced.run_s);
    untraced_cpu.push_back(untraced.run_cpu_s);

    vtm::util::trace_session trace;
    prepared_run run = prepare(*s.w, {nullptr, &trace});
    const std::int64_t since_ns = trace.now_ns();
    const run_outcome outcome = execute(run, false);
    run.coordinator.reset();
    s.account(*s.w, outcome, true);
    traced_cpu.push_back(outcome.run_cpu_s);

    trace_file file{trace_dir + "/trace_" + std::to_string(traces.size()) +
                        ".json",
                    static_cast<double>(since_ns) / 1000.0, outcome.run_s};
    std::ofstream out(file.path);
    trace.write_chrome_json(out);
    if (!out) throw std::runtime_error("cannot write " + file.path);
    traces.push_back(std::move(file));
  }

  const auto& t = s.reference.totals;
  const double handovers = static_cast<double>(t.handovers);
  const double clearings = static_cast<double>(t.clearings);
  const bool streaming = s.w->streaming;
  const double vehicles = static_cast<double>(s.w->base().vehicle_count);
  std::vector<metric> out = {
      {"util.trace.overhead_pct",
       100.0 * (median(traced_cpu) - median(untraced_cpu)) /
           median(untraced_cpu),
       "%"},
      {"core.fleet_shard.handovers_per_wall_s",
       ratio(handovers, median(untraced_wall)), "1/s"},
      {"core.fleet_shard.handovers_per_cpu_s",
       ratio(handovers, median(untraced_cpu)), "1/s"},
      {"core.fleet_shard.deferral_ratio",
       ratio(static_cast<double>(t.deferred), handovers), "ratio"},
      {"core.fleet_shard.clearings", clearings, "count"},
      {"core.fleet_shard.mean_cohort",
       ratio(static_cast<double>(t.completed + t.priced_out), clearings),
       "count"},
      {"core.fleet_shard.transfers_per_handover",
       ratio(static_cast<double>(t.cross_shard_transfers), handovers),
       "ratio"},
      {"core.fleet_shard.late_handoff_share",
       ratio(static_cast<double>(t.late_handoffs), handovers), "ratio"},
      {"core.fleet_shard.peak_live",
       streaming ? static_cast<double>(s.reference.peak_live) : vehicles,
       "count"},
      {"core.fleet_shard.slot_high_water",
       streaming ? static_cast<double>(s.reference.slot_high_water)
                 : vehicles,
       "count"},
      {"core.multi_msp.sweeps_per_clearing",
       ratio(static_cast<double>(t.solver_sweeps), clearings), "count"},
      {"core.multi_msp.evals_per_clearing",
       ratio(static_cast<double>(t.objective_evals), clearings), "count"},
      {"core.multi_msp.warm_hit_rate",
       ratio(static_cast<double>(t.warm_started_clearings), clearings),
       "ratio"},
      {"core.multi_msp.unconverged_clearings",
       static_cast<double>(t.unconverged_clearings), "count"},
  };

  std::vector<std::string> probe_failures;
  const double probe_budget =
      std::max(0.5 * seconds, seconds - seconds_since(start));
  for (auto& probe :
       run_probes(*s.w, inputs, seed, probe_budget, probe_failures))
    out.push_back(std::move(probe));
  if (!probe_failures.empty()) {
    ++s.failed;
    for (const auto& f : probe_failures)
      std::fprintf(stderr, "fleetbench: %s\n", f.c_str());
  }
  return out;
}

void print_json_string(const std::string& text) {
  std::putchar('"');
  for (const char c : text) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

int usage(const char* why) {
  std::fprintf(stderr,
               "fleetbench: %s\nusage: fleetbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR] [--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string git_sha = "unknown";
  std::string trace_dir = ".";
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") name = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") trace = std::atoi(value);
    else if (flag == "--trace-dir") trace_dir = value;
    else if (flag == "--git-sha") git_sha = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (name.empty()) return usage("--workload is required");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");

  try {
    const workload w = make_workload(name, seed);
    std::printf(
        "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"nproc\": %u, \"cpu\": \"%s\", \"compiler\": "
        "\"%s\", \"flags\": \"%s\", \"arch\": \"%s\", \"telemetry\": %s, "
        "\"aslr\": %s, \"git_sha\": \"%s\"}\n",
        name.c_str(), static_cast<unsigned long long>(seed), seconds, trace,
        std::thread::hardware_concurrency(), FLEETBENCH_CPU,
        FLEETBENCH_COMPILER, FLEETBENCH_FLAGS, FLEETBENCH_ARCH,
        vtm::util::telemetry_compiled() ? "true" : "false",
        (personality(0xffffffff) & ADDR_NO_RANDOMIZE) != 0 ? "false" : "true",
        git_sha.c_str());
    session s;
    s.w = &w;
    std::vector<trace_file> traces;
    const std::vector<metric> metrics =
        trace == 0 ? end_to_end(s, seconds)
                   : per_layer(s, seconds, seed, trace_dir, traces);
    for (const auto& m : metrics)
      std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                s.failed == 0 ? "true" : "false", s.attempted, s.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) std::printf(", ");
      print_json_string(metrics[i].name);
      std::printf(": {\"value\": %.17g, \"unit\": ", metrics[i].value);
      print_json_string(metrics[i].unit);
      std::printf("}");
    }
    std::printf("}");
    if (trace == 1) {
      std::printf(", \"traces\": [");
      for (std::size_t i = 0; i < traces.size(); ++i) {
        std::printf(i > 0 ? ", {\"path\": " : "{\"path\": ");
        print_json_string(traces[i].path);
        std::printf(", \"since_us\": %.17g, \"run_s\": %.17g}",
                    traces[i].since_us, traces[i].run_s);
      }
      std::printf("]");
    }
    std::printf("}\n");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fleetbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
