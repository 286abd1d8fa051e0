/**
 * @file
 * The benchmark's workloads. Each is a closed loop from one generator
 * thread over the library's public serving APIs with default
 * configuration (batching off, ABFT off, T = 32):
 *
 *   ann-mlp3-wire  mlp3/ann behind ServingServer over loopback, one
 *                  client connection, 8 pipelined requests, 1 resident
 *                  slot, 1 worker. serving, runtime hand-offs and obs
 *                  counters dominate.
 *   swap-mix       the same wire stack with catalog {mlp3/ann,
 *                  lenet5/ann} and 1 resident slot; the model switches
 *                  every 100 requests, so reads sit beside write-verify
 *                  re-programming.
 *
 * The timed phase is a series of equal rounds that replay identical
 * inputs and seeds (see bench_stats.hpp for why).
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One metric as printed: name, value, unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Host conditions during the timed phase (recorded, never gated). */
struct HostRecord
{
    double stealShare = 0.0; //!< /proc/stat steal / total jiffies
    double load1 = 0.0;      //!< 1-minute load average at the end
    int nproc = 0;           //!< online CPUs
    int cpus = 0;            //!< CPUs the run was pinned to
    int roundsRun = 0;
    int roundsKept = 0;      //!< rounds the metrics were computed over
};

/** What one run asks for. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;

    /**
     * Traced run: report per-layer metrics (spans, counts, probes)
     * instead of end-to-end ones.
     */
    bool trace = false;

    /** Stop after the first answered request; report setup_s only. */
    bool setupOnly = false;

    /** Where a traced run writes its spans (empty: not written). */
    std::string spansPath;

    /** Process start: setup_s is measured from here. */
    std::chrono::steady_clock::time_point processStart =
        std::chrono::steady_clock::now();
};

/** What one run measured. */
struct RunReport
{
    /** Every output matched round 1 and round 1 matched the reference. */
    bool correct = true;
    long long attempted = 0;
    long long failed = 0; //!< not Ok, or Ok with a mismatching output
    std::vector<Metric> metrics;

    /** Human-readable lines: sample counts, end-to-end pairings. */
    std::vector<std::string> notes;
    HostRecord host;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Run one workload in this process. Throws std::invalid_argument for
 * an unknown workload name.
 */
RunReport runWorkload(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
