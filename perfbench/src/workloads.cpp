#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench_stats.hpp"
#include "nn/datasets.hpp"
#include "probes.hpp"
#include "runtime/engine.hpp"
#include "serving/client.hpp"
#include "serving/models.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"
#include "span_log.hpp"

namespace perfbench {

using namespace nebula;
using namespace nebula::serving;

namespace {

/** Rounds every run makes, however slow the host. */
constexpr size_t kMinRounds = 4;

/**
 * Wall-clock and CPU metrics are computed over a run's fastest rounds
 * (min-of-N): at least kMinKeptRounds of them, and enough to hold
 * kMinKeptSamples latency samples, ten beyond p99. Interference on a
 * shared host only adds time, and it comes in phases -- steal, and
 * CPU-speed phases of a second or more in which the same round takes
 * up to 1.6x longer -- so a run's slower rounds are mostly interference.
 * The count is fixed, which also bounds the replies the benchmark holds.
 */
constexpr size_t kMinKeptRounds = 8;
constexpr size_t kMinKeptSamples = 1000;

/** Engine default evidence window (EngineConfig::defaultTimesteps). */
constexpr int kTimesteps = 32;

/** Requests the one client connection keeps outstanding (closed loop). */
constexpr int kPipelined = 8;

struct WorkloadDef
{
    std::string name;
    std::vector<std::string> catalog; //!< servable ids
    int evalRequests = 1;  //!< requests checked for accuracy and energy
    int roundRequests = 1; //!< requests per round: the first of those
    int switchEvery = 0;   //!< model switch period (0: one model)
};

/**
 * CPU pinning: the client, server and worker threads hand each request
 * along a chain, so each workload runs on one CPU. On a shared 4-vCPU
 * host, spreading that chain over all CPUs made ann-mlp3-wire wait on
 * cross-CPU wake-ups: any steal on any vCPU stalled the chain, and runs
 * ranged from 5k to 36k req/s. Pinned to one CPU, runs agreed within
 * 4% and system steal fell from up to 20% to about 1%.
 *
 * Every request has its own input image; accuracy and energy are taken
 * over evalRequests of them (each served request is checked bit for bit
 * against the same reference), so they do not hinge on a few images. A
 * swap-mix round is one whole switch cycle, so every round carries the
 * same two swaps.
 *
 * There is no SNN workload. lenet5/snn served in process (one or two
 * workers, one CPU each) was measured and dropped: its per-request CPU
 * time follows the shared host's speed, which drifted by up to 1.8x
 * over minutes on every vCPU at once, with no fast phases left for
 * min-of-N to keep, so its timings spread 17-43% between runs of the
 * same code. mlp3/snn slowed 1.5-1.7x in the same phase. The wire
 * workloads spend most of their time in the serving stack and moved
 * by about a tenth.
 */
const std::vector<WorkloadDef> &
definitions()
{
    static const std::vector<WorkloadDef> defs = {
        {"ann-mlp3-wire", {"mlp3/ann"}, 512, 512, 0},
        {"swap-mix", {"mlp3/ann", "lenet5/ann"}, 400, 200, 100},
    };
    return defs;
}

size_t
keptRounds(const WorkloadDef &def)
{
    const size_t per_round = static_cast<size_t>(def.roundRequests);
    return std::max(kMinKeptRounds,
                    (kMinKeptSamples + per_round - 1) / per_round);
}

const WorkloadDef &
findDefinition(const std::string &name)
{
    for (const WorkloadDef &def : definitions())
        if (def.name == name)
            return def;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

/** One request of a round: catalog model, input image, encoder seed. */
struct Planned
{
    int model = 0;
    int image = 0;
    uint64_t seed = 0;
};

/** The evaluation requests; a round serves the first roundRequests. */
std::vector<Planned>
makePlan(const WorkloadDef &def, uint64_t seed)
{
    std::vector<Planned> plan(static_cast<size_t>(def.evalRequests));
    for (int i = 0; i < def.evalRequests; ++i) {
        Planned &p = plan[static_cast<size_t>(i)];
        p.model = def.switchEvery == 0
                      ? 0
                      : (i / def.switchEvery) %
                            static_cast<int>(def.catalog.size());
        p.image = i;
        p.seed = deriveRequestSeed(seed, static_cast<uint64_t>(i));
    }
    return plan;
}

/** What the generator observed for one request. */
struct Reply
{
    bool ok = false;
    int predicted = -1;
    uint64_t digest = 0; //!< fingerprint of the logits' bits
    double latencyMs = 0.0;
    double serverMs = 0.0;  //!< wire only
    double queueMs = 0.0;   //!< engine driven directly only
    double serviceMs = 0.0; //!< engine driven directly only
};

double
elapsedMs(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/**
 * Closed loop: keep @p depth of @p n requests outstanding. @p submit(i)
 * sends request i and returns its future; @p record(i, submitted,
 * done, result) receives the results in submission order.
 */
template <typename Submit, typename Record>
void
closedLoop(size_t n, int depth, Submit submit, Record record)
{
    struct Pending
    {
        size_t index;
        Clock::time_point submitted;
        decltype(submit(size_t{0})) future;
    };
    std::deque<Pending> inflight;
    auto collect = [&] {
        Pending p = std::move(inflight.front());
        inflight.pop_front();
        const auto result = p.future.get();
        record(p.index, p.submitted, Clock::now(), result);
    };
    for (size_t i = 0; i < n; ++i) {
        if (inflight.size() >= static_cast<size_t>(depth))
            collect();
        const auto submitted = Clock::now();
        inflight.push_back({i, submitted, submit(i)});
    }
    while (!inflight.empty())
        collect();
}

/**
 * Closed loop over an in-process engine. Returns the summed modelled
 * chip energy (J), added in request order.
 */
double
serveEngine(InferenceEngine &engine, const std::vector<Planned> &plan,
            const Dataset &data, int depth, std::vector<Reply> &out,
            SpanLog *spans, int parent)
{
    out.assign(plan.size(), Reply{});
    double energy = 0.0;
    closedLoop(
        plan.size(), depth,
        [&](size_t i) {
            InferenceRequest request;
            request.image = data.image(plan[i].image);
            request.seed = plan[i].seed;
            return engine.submit(std::move(request));
        },
        [&](size_t i, Clock::time_point submitted, Clock::time_point done,
            const InferenceResult &result) {
            Reply &reply = out[i];
            reply.ok = result.ok();
            reply.predicted = result.predictedClass;
            reply.digest = fingerprint(
                result.logits.data(),
                static_cast<size_t>(result.logits.size()));
            // Latency as the engine saw it, enqueue to result: the loop
            // collects in submission order, so its own clock would add
            // the wait behind an earlier, slower request.
            reply.queueMs = 1e3 * result.queueSeconds;
            reply.serviceMs = 1e3 * result.serviceSeconds;
            reply.latencyMs = reply.queueMs + reply.serviceMs;
            energy += result.energy.total();
            if (spans)
                spans->add("runtime.request", submitted, done, parent, i + 1);
        });
    return energy;
}

/** ModelRegistry behind a loopback ServingServer, one client. */
class WireStack
{
  public:
    WireStack(const WorkloadDef &def, const Dataset &data)
        : data_(data)
    {
        RegistryConfig config;
        for (const std::string &id : def.catalog) {
            ServableModelSpec spec;
            parseServableId(id, spec);
            WireMode mode = WireMode::Ann;
            parseWireMode(spec.mode, mode);
            modes_.push_back(mode);
            specs_.push_back(spec);
            config.catalog.push_back(spec);
        }
        config.residentCapacity = 1;
        registry_ = std::make_shared<ModelRegistry>(config);
        server_ = std::make_unique<ServingServer>(ServerConfig{}, registry_);
        server_->start();
        if (!client_.connect("127.0.0.1", server_->port()))
            throw std::runtime_error("cannot connect to the loopback server");
    }

    ~WireStack()
    {
        client_.close();
        server_->stop();
    }

    /** Serve @p plan closed-loop. */
    void serve(const std::vector<Planned> &plan, std::vector<Reply> &out,
               SpanLog *spans, int parent)
    {
        out.assign(plan.size(), Reply{});
        closedLoop(
            plan.size(), kPipelined,
            [&](size_t i) {
                const auto model = static_cast<size_t>(plan[i].model);
                ServeOptions options;
                options.seed = plan[i].seed;
                return client_.inferAsync("perfbench", specs_[model].family,
                                          modes_[model],
                                          data_.image(plan[i].image),
                                          options);
            },
            [&](size_t i, Clock::time_point submitted, Clock::time_point done,
                const WireResponse &response) {
                Reply &reply = out[i];
                reply.ok = response.status == WireStatus::Ok;
                reply.predicted = response.predictedClass;
                reply.digest = fingerprint(
                    response.logits.data(),
                    static_cast<size_t>(response.logits.size()));
                reply.latencyMs = elapsedMs(submitted, done);
                reply.serverMs = response.serverMs;
                if (spans)
                    spans->add("serving.request", submitted, done, parent,
                               i + 1);
            });
    }

    /** Registry swap-ins so far. */
    uint64_t swapIns() const { return registry_->swapIns(); }

    /**
     * The engine that serves @p model right now (null when it is not
     * resident); the runtime probe drives it directly.
     */
    InferenceEngine *engineFor(int model)
    {
        const std::string id = specs_.at(static_cast<size_t>(model)).id();
        for (const auto &status : registry_->status())
            if (status.id == id && status.instance)
                return &status.instance->engine();
        return nullptr;
    }

  private:
    const Dataset &data_;
    std::vector<WireMode> modes_;
    std::vector<ServableModelSpec> specs_;
    std::shared_ptr<ModelRegistry> registry_;
    std::unique_ptr<ServingServer> server_;
    ServingClient client_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const WorkloadDef &def : definitions())
            out.push_back(def.name);
        return out;
    }();
    return names;
}

namespace {

/** Per-layer metrics of the traced run, each with what it should move. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *moves; //!< end-to-end metric and workload it should move
};

const LayerMetric kPerLayer[] = {
    {"setup.train_s", "s", "setup_s on every workload"},
    {"setup.quantize_s", "s", "setup_s on every workload"},
    {"setup.convert_s", "s", "setup_s on every workload"},
    {"setup.program_s", "s", "setup_s on every workload"},
    {"runtime.queue_wait_ms_p50", "ms",
     "latency_p50_ms, throughput_rps on both workloads"},
    {"runtime.service_ms_p50", "ms",
     "latency_p50_ms, throughput_rps on both workloads"},
    {"runtime.worker_busy_share", "ratio",
     "throughput_rps on both workloads"},
    {"arch.chip_run_ms", "ms",
     "cpu_ms_per_req on swap-mix (lenet5/ann); little on ann-mlp3-wire"},
    {"arch.crossbar_evals_per_inf", "count",
     "energy_uj_per_inf; unchanged by a host-speed change"},
    {"arch.adc_conversions_per_inf", "count",
     "energy_uj_per_inf; unchanged by a host-speed change"},
    {"arch.spikes_per_inf", "count",
     "energy_uj_per_inf; unchanged by a host-speed change"},
    {"noc.packets_per_inf", "count",
     "energy_uj_per_inf; unchanged by a host-speed change"},
    {"circuit.eval_sparse_us", "us",
     "nothing end to end: no workload serves an SNN"},
    {"snn.encode_us_per_step", "us",
     "nothing end to end: no workload serves an SNN"},
    {"serving.server_ms_p50", "ms",
     "cpu_ms_per_req, latency_p50_ms on ann-mlp3-wire"},
    {"serving.transport_ms_p50", "ms",
     "cpu_ms_per_req, latency_p50_ms on ann-mlp3-wire"},
    {"serving.protocol_us", "us",
     "cpu_ms_per_req, latency_p50_ms on ann-mlp3-wire"},
    {"serving.latency_p99_ms", "ms",
     "the latency tail: swaps set it on swap-mix, wake-ups on "
     "ann-mlp3-wire"},
    {"registry.swap_in_ms", "ms",
     "serving.latency_p99_ms, throughput_rps on swap-mix; none "
     "elsewhere"},
    {"registry.swaps_per_1k_req", "count",
     "serving.latency_p99_ms, throughput_rps on swap-mix; none "
     "elsewhere"},
    {"reliability.write_verify_pulses_per_swap", "count",
     "serving.latency_p99_ms, throughput_rps on swap-mix; none "
     "elsewhere"},
    {"reliability.program_uj_per_swap", "uJ",
     "serving.latency_p99_ms, throughput_rps on swap-mix; none "
     "elsewhere"},
    {"obs.counter_inc_ns", "ns",
     "cpu_ms_per_req on ann-mlp3-wire, then swap-mix"},
    {"obs.trace_overhead", "ratio", "traced / untraced throughput_rps"},
};

/** Busy and total jiffies of the "cpu" line of /proc/stat. */
struct CpuTimes
{
    double steal = 0.0;
    double total = 0.0;
};

CpuTimes
readCpuTimes()
{
    CpuTimes out;
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    if (label != "cpu")
        return out;
    for (int field = 0; field < 10; ++field) {
        double v = 0.0;
        if (!(in >> v))
            break;
        out.total += v;
        if (field == 7)
            out.steal = v;
    }
    return out;
}

/**
 * The rounds of one plan: every round's CPU time and the replies of
 * the fastest rounds. Only a fixed number of rounds keep their
 * replies, so the benchmark's own memory does not grow with the number
 * of rounds a run fits in.
 */
class Series
{
  public:
    Series(size_t keep, size_t requests) : kept_(keep), requests_(requests)
    {
    }

    void add(double wall_s, double cpu_s, std::vector<Reply> replies)
    {
        cpus_.push_back(cpu_s);
        kept_.offer(wall_s, std::move(replies));
    }

    size_t rounds() const { return cpus_.size(); }
    size_t kept() const { return kept_.kept().size(); }

    /** Requests per second over the fastest rounds. */
    double throughput() const
    {
        return static_cast<double>(kept() * requests_) / keptWallSeconds();
    }

    /**
     * CPU milliseconds per request over the rounds that took the least
     * CPU time (as many as keep their replies).
     */
    double cpuMsPerRequest() const
    {
        double cpu = 0.0;
        const std::vector<size_t> least = fastestK(cpus_, kept());
        for (size_t r : least)
            cpu += cpus_[r];
        return 1e3 * cpu / static_cast<double>(least.size() * requests_);
    }

    /** @p field of every reply of the fastest rounds. */
    template <typename Field>
    std::vector<double> pooled(Field field) const
    {
        std::vector<double> out;
        for (const auto &entry : kept_.kept())
            for (const Reply &reply : entry.payload)
                out.push_back(field(reply));
        return out;
    }

    /** Sum of the fastest rounds' wall times (s). */
    double keptWallSeconds() const
    {
        double wall = 0.0;
        for (const auto &entry : kept_.kept())
            wall += entry.key;
        return wall;
    }

  private:
    FastestRounds<std::vector<Reply>> kept_;
    size_t requests_;
    std::vector<double> cpus_;
};

/**
 * Serve rounds into @p series until @p budget_s has passed and at
 * least @p min_rounds were made. @p serve fills one round's replies.
 */
template <typename Serve>
void
runRounds(Series &series, double budget_s, size_t min_rounds, Serve serve)
{
    const auto start = Clock::now();
    while (series.rounds() < min_rounds ||
           std::chrono::duration<double>(Clock::now() - start).count() <
               budget_s) {
        std::vector<Reply> replies;
        const double cpu0 = processCpuSeconds();
        const auto w0 = Clock::now();
        serve(replies);
        const double wall =
            std::chrono::duration<double>(Clock::now() - w0).count();
        series.add(wall, processCpuSeconds() - cpu0, std::move(replies));
    }
}

double
loadAverage1()
{
    std::ifstream in("/proc/loadavg");
    double load = 0.0;
    in >> load;
    return load;
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
describe(const char *what, const Percentile &p)
{
    std::ostringstream os;
    os << what << ": " << p.samples << " samples, " << p.beyond
       << " beyond the reported rank";
    return os.str();
}

/**
 * Pin the calling thread, and so every thread it starts later, to the
 * first of the CPUs the process was started on. Returns the number of
 * CPUs pinned to (0 when affinity cannot be set).
 */
int
pinToOneCpu()
{
    static const std::optional<cpu_set_t> started_on = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0)
            return std::optional<cpu_set_t>();
        return std::optional<cpu_set_t>(set);
    }();
    if (!started_on)
        return 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &*started_on)) {
            cpu_set_t chosen;
            CPU_ZERO(&chosen);
            CPU_SET(cpu, &chosen);
            return sched_setaffinity(0, sizeof(chosen), &chosen) == 0 ? 1
                                                                      : 0;
        }
    return 0;
}

} // namespace

RunReport
runWorkload(const RunOptions &options)
{
    const WorkloadDef &def = findDefinition(options.workload);
    RunReport report;
    report.host.cpus = pinToOneCpu();
    SpanLog spans(options.trace, options.processStart);
    ServableLoader &loader = ServableLoader::global();

    std::vector<ServableModelSpec> catalog;
    for (const std::string &id : def.catalog) {
        ServableModelSpec spec;
        parseServableId(id, spec);
        catalog.push_back(spec);
    }
    // The serving registry programs under write-verify accounting; the
    // reference replica must be programmed the same way to match.
    const ReliabilityConfig reliability = defaultSwapAccounting();
    const SyntheticDigits data(def.evalRequests, /*imageSize=*/16,
                               deriveRequestSeed(options.seed, 1u << 20));
    const std::vector<Planned> plan = makePlan(def, options.seed);
    const std::vector<Planned> round(
        plan.begin(), plan.begin() + std::min(plan.size(),
                                              static_cast<size_t>(
                                                  def.roundRequests)));

    // -- set-up: train, build the stack, first answered request ----------
    const int setup_span = spans.open("setup");
    auto t0 = Clock::now();
    for (const ServableModelSpec &spec : catalog)
        loader.trainedNetwork(spec);
    const double train_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    spans.add("setup.train", t0, Clock::now(), setup_span);

    t0 = Clock::now();
    auto stack = std::make_unique<WireStack>(def, data);
    spans.add("setup.stack", t0, Clock::now(), setup_span);

    std::vector<Reply> first;
    stack->serve({plan.front()}, first, &spans, setup_span);
    spans.close(setup_span);
    const double setup_s =
        std::chrono::duration<double>(Clock::now() - options.processStart)
            .count();
    if (options.setupOnly) {
        report.attempted = 1;
        report.failed = first.at(0).ok ? 0 : 1;
        report.correct = report.failed == 0;
        report.metrics = {{"setup_s", setup_s, "s"}};
        return report;
    }

    // The model of the round's last request is resident when every
    // round starts, so round 1 carries the same swaps as the others.
    stack->serve({round.back()}, first, nullptr, -1);

    // -- reference: inline replicas, outside the timed window ------------
    std::vector<Reply> expected(plan.size());
    ChipStats reference_stats;
    double reference_energy_j = 0.0;
    for (size_t m = 0; m < catalog.size(); ++m) {
        EngineConfig inline_config;
        inline_config.numWorkers = 0;
        InferenceEngine reference(
            inline_config, loader.makeFactory(catalog[m], reliability));
        std::vector<Planned> sub;
        std::vector<size_t> where;
        for (size_t i = 0; i < plan.size(); ++i)
            if (plan[i].model == static_cast<int>(m)) {
                sub.push_back(plan[i]);
                where.push_back(i);
            }
        std::vector<Reply> replies;
        reference_energy_j +=
            serveEngine(reference, sub, data, 1, replies, nullptr, -1);
        for (size_t k = 0; k < sub.size(); ++k)
            expected[where[k]] = replies[k];
        reference_stats.merge(reference.chipStats());
    }

    // -- timed rounds -----------------------------------------------------
    // Each reply must equal the reference, which also makes every round
    // equal round 1.
    const size_t keep = keptRounds(def);
    auto timed_round = [&](bool traced) {
        return [&, traced](std::vector<Reply> &replies) {
            const int round_span = traced ? spans.open("round") : -1;
            stack->serve(round, replies, traced ? &spans : nullptr,
                         round_span);
            spans.close(round_span);
            for (size_t i = 0; i < round.size(); ++i) {
                const Reply &got = replies[i];
                ++report.attempted;
                if (!got.ok || !expected[i].ok ||
                    got.predicted != expected[i].predicted ||
                    got.digest != expected[i].digest)
                    ++report.failed;
            }
        };
    };

    const CpuTimes cpu_before = readCpuTimes();
    const uint64_t swaps_before = stack->swapIns();
    Series rounds(keep, round.size());
    runRounds(rounds, options.trace ? options.seconds / 2 : options.seconds,
              kMinRounds, timed_round(false));
    const uint64_t swaps_after = stack->swapIns();
    Series traced(keep, round.size());
    if (options.trace)
        runRounds(traced, options.seconds / 2, kMinRounds,
                  timed_round(true));
    const CpuTimes cpu_after = readCpuTimes();

    report.correct = report.failed == 0;
    report.host.stealShare =
        cpu_after.total > cpu_before.total
            ? (cpu_after.steal - cpu_before.steal) /
                  (cpu_after.total - cpu_before.total)
            : 0.0;
    report.host.load1 = loadAverage1();
    report.host.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    report.host.roundsRun = static_cast<int>(rounds.rounds() + traced.rounds());
    report.host.roundsKept = static_cast<int>(rounds.kept());
    const double n = static_cast<double>(plan.size());

    if (!options.trace) {
        const auto latency =
            rounds.pooled([](const Reply &r) { return r.latencyMs; });
        const Percentile p50 = percentile(latency, 0.50);
        const Percentile p99 = percentile(latency, 0.99);
        double correct_class = 0.0;
        for (size_t i = 0; i < plan.size(); ++i)
            correct_class +=
                expected[i].predicted == data.label(plan[i].image) ? 1.0
                                                                   : 0.0;
        report.metrics = {
            {"setup_s", setup_s, "s"},
            {"throughput_rps", rounds.throughput(), "1/s"},
            {"latency_p50_ms", p50.value, "ms"},
            {"cpu_ms_per_req", rounds.cpuMsPerRequest(), "ms"},
            {"ok_ratio",
             static_cast<double>(report.attempted - report.failed) /
                 static_cast<double>(report.attempted),
             "ratio"},
            {"accuracy", correct_class / n, "ratio"},
            {"energy_uj_per_inf", 1e6 * reference_energy_j / n, "uJ"},
            {"peak_rss_mb", peakRssMiB(), "MiB"},
        };
        // The tail is printed, not a metric: it follows how the host
        // schedules the client, server and worker threads more than the
        // program, and spread up to 28% between ann-mlp3-wire runs of
        // the same code.
        report.notes = {describe("latency_p50_ms", p50),
                        describe("latency p99 (not a metric)", p99) +
                            ", value " + std::to_string(p99.value) + " ms"};
        return report;
    }

    // -- traced run: per-layer metrics -----------------------------------
    std::map<std::string, double> layer;
    layer["obs.trace_overhead"] = traced.throughput() / rounds.throughput();
    layer["setup.train_s"] = train_s;
    layer["registry.swaps_per_1k_req"] =
        1e3 * static_cast<double>(swaps_after - swaps_before) /
        static_cast<double>(round.size() * rounds.rounds());
    layer["arch.crossbar_evals_per_inf"] =
        static_cast<double>(reference_stats.crossbarEvals) / n;
    layer["arch.adc_conversions_per_inf"] =
        static_cast<double>(reference_stats.adcConversions) / n;
    layer["arch.spikes_per_inf"] =
        static_cast<double>(reference_stats.spikes) / n;
    layer["noc.packets_per_inf"] =
        static_cast<double>(reference_stats.nocPackets) / n;

    // runtime: the engine's own timings, from driving the resident
    // engine behind the wire directly with the same requests.
    std::vector<Planned> resident;
    for (const Planned &p : round)
        if (p.model == round.back().model)
            resident.push_back(p);
    Series runtime(keep, resident.size());
    InferenceEngine *engine = stack->engineFor(round.back().model);
    if (!engine)
        throw std::runtime_error("no resident engine to probe");
    runRounds(runtime, 0.0, keep, [&](std::vector<Reply> &replies) {
        serveEngine(*engine, resident, data, kPipelined, replies, &spans, -1);
    });
    const auto service =
        runtime.pooled([](const Reply &r) { return r.serviceMs; });
    layer["runtime.queue_wait_ms_p50"] =
        percentile(runtime.pooled([](const Reply &r) { return r.queueMs; }),
                   0.50)
            .value;
    layer["runtime.service_ms_p50"] = percentile(service, 0.50).value;
    double busy_ms = 0.0;
    for (double ms : service)
        busy_ms += ms;
    layer["runtime.worker_busy_share"] =
        busy_ms / (1e3 * runtime.keptWallSeconds() * engine->numWorkers());

    // serving: from the traced rounds.
    layer["serving.server_ms_p50"] =
        percentile(traced.pooled([](const Reply &r) { return r.serverMs; }),
                   0.50)
            .value;
    layer["serving.transport_ms_p50"] =
        percentile(traced.pooled([](const Reply &r) {
                       return r.latencyMs - r.serverMs;
                   }),
                   0.50)
            .value;
    const Percentile wire_p99 =
        percentile(traced.pooled([](const Reply &r) { return r.latencyMs; }),
                   0.99);
    layer["serving.latency_p99_ms"] = wire_p99.value;
    report.notes.push_back(describe("serving.latency_p99_ms", wire_p99));
    stack.reset();

    // setup layers, one call each: quantize / convert / program.
    double quantize_s = 0.0;
    double convert_s = 0.0;
    double program_s = 0.0;
    double run_ms = 0.0;
    for (size_t m = 0; m < catalog.size(); ++m) {
        t0 = Clock::now();
        loader.quantized(catalog[m]);
        quantize_s += std::chrono::duration<double>(Clock::now() - t0).count();
        t0 = Clock::now();
        loader.spiking(catalog[m]);
        convert_s += std::chrono::duration<double>(Clock::now() - t0).count();

        const ReplicaFactory factory =
            loader.makeFactory(catalog[m], reliability);
        t0 = Clock::now();
        std::unique_ptr<ChipReplica> replica = factory(0);
        program_s += std::chrono::duration<double>(Clock::now() - t0).count();
        spans.add("setup.program", t0, Clock::now());

        // arch: single-thread ChipReplica::run over this model's inputs,
        // second pass timed.
        std::vector<double> per_request;
        for (int pass = 0; pass < 2; ++pass)
            for (size_t i = 0, used = 0; i < plan.size() && used < 64; ++i) {
                const Planned &p = plan[i];
                if (p.model != static_cast<int>(m))
                    continue;
                ++used;
                InferenceRequest request;
                request.image = data.image(p.image);
                request.seed = p.seed;
                request.timesteps = kTimesteps;
                const auto r0 = Clock::now();
                replica->run(request);
                const auto r1 = Clock::now();
                if (pass == 1)
                    per_request.push_back(elapsedMs(r0, r1));
                spans.add("arch.chip_run", r0, r1);
            }
        run_ms += median(per_request) / static_cast<double>(catalog.size());
    }
    layer["setup.quantize_s"] = quantize_s;
    layer["setup.convert_s"] = convert_s;
    layer["setup.program_s"] = program_s;
    layer["arch.chip_run_ms"] = run_ms;

    double density = 0.0;
    layer["snn.encode_us_per_step"] =
        probeEncodeUsPerStep(data, kTimesteps, density);
    layer["circuit.eval_sparse_us"] = probeEvalSparseUs(density);
    layer["serving.protocol_us"] =
        probeProtocolUs(data.image(0), catalog.front().classes);
    layer["obs.counter_inc_ns"] = probeCounterIncNs();
    const SwapProbe swap = probeSwapIn(catalog);
    layer["registry.swap_in_ms"] = swap.swapInMs;
    layer["reliability.write_verify_pulses_per_swap"] = swap.pulsesPerSwap;
    layer["reliability.program_uj_per_swap"] = swap.programUjPerSwap;

    for (const LayerMetric &metric : kPerLayer) {
        const auto it = layer.find(metric.name);
        if (it == layer.end())
            throw std::logic_error(std::string("per-layer metric not "
                                               "measured: ") +
                                   metric.name);
        report.metrics.push_back({metric.name, it->second, metric.unit});
        report.notes.push_back(std::string(metric.name) + " moves " +
                               metric.moves);
    }
    {
        std::ostringstream os;
        os << "spike density at the encoder: " << density;
        report.notes.push_back(os.str());
    }
    if (!options.spansPath.empty() && !spans.write(options.spansPath))
        throw std::runtime_error("cannot write spans to " +
                                 options.spansPath);
    return report;
}

} // namespace perfbench
