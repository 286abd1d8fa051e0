/**
 * nebula_perf: run one benchmark workload in this process.
 *
 *   nebula_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *               [--setup-only] [--spans <path>]
 *
 * Prints human-readable notes ("# ..."), one host record line
 * ("host {...}") and, last, the result as one JSON object with the keys
 * correct, attempted, failed and metrics. Exits 1 when any output
 * failed its check, 2 on a usage or runtime error. run.py drives it.
 */

#include <chrono>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench_stats.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "workloads.hpp"

namespace {

// Taken before main() runs: set-up time starts at process start.
const auto kProcessStart = std::chrono::steady_clock::now();

int
usage(const std::string &why)
{
    std::cerr << "nebula_perf: " << why
              << "\nusage: nebula_perf --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--setup-only] "
                 "[--spans <path>]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using nebula::json::number;
    using nebula::json::quoted;

    perfbench::RunOptions options;
    options.processStart = kProcessStart;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--setup-only") {
            options.setupOnly = true;
        } else if (!has_value) {
            return usage("missing value for " + arg);
        } else if (arg == "--workload") {
            options.workload = argv[++i];
        } else if (arg == "--seed") {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace") {
            options.trace = std::string(argv[++i]) == "1";
        } else if (arg == "--spans") {
            options.spansPath = argv[++i];
        } else {
            return usage("unknown argument " + arg);
        }
    }
    if (options.workload.empty() || options.seconds <= 0.0)
        return usage("--workload and a positive --seconds are required");

    nebula::setLogQuiet(true);
    perfbench::RunReport report;
    try {
        report = perfbench::runWorkload(options);
    } catch (const std::exception &e) {
        std::cerr << "nebula_perf: " << e.what() << "\n";
        return 2;
    }

    for (const perfbench::Metric &m : report.metrics)
        if (!perfbench::validMetricName(m.name) ||
            !perfbench::validUnit(m.unit)) {
            std::cerr << "nebula_perf: invalid metric name or unit: "
                      << m.name << " [" << m.unit << "]\n";
            return 2;
        }
    for (const std::string &note : report.notes)
        std::cout << "# " << note << "\n";
    const perfbench::HostRecord &host = report.host;
    std::cout << "host {\"steal_share\": " << number(host.stealShare)
              << ", \"load1\": " << number(host.load1)
              << ", \"nproc\": " << host.nproc
              << ", \"cpus\": " << host.cpus
              << ", \"rounds_run\": " << host.roundsRun
              << ", \"rounds_kept\": " << host.roundsKept << "}\n";
    std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const perfbench::Metric &m = report.metrics[i];
        std::cout << (i ? ", " : "") << quoted(m.name)
                  << ": {\"value\": " << number(m.value)
                  << ", \"unit\": " << quoted(m.unit) << "}";
    }
    std::cout << "}}" << std::endl;
    return report.correct ? 0 : 1;
}
