/**
 * @file
 * Serving-throughput study for the concurrent inference runtime:
 * images/sec of the worker-pool engine at 1, 2, 4 and 8 workers on the
 * paper's MLP workload (quantized, ANN mode, synthetic digits), with
 * speedup relative to one worker and the mean request latency. Scaling
 * tops out at the machine's core count: on an N-core host the curve
 * should be near-linear up to N workers and flat beyond.
 *
 * Also measures the fast-evaluation speedup in both modes: the same
 * workload served with NebulaConfig::fastEval on (cached crossbar
 * views, sparse spike-driven SNN evaluation, row-batched ANN windows)
 * versus off (the preserved pre-optimization scalar loops). The
 * recorded `snn.speedup` / `ann.speedup` ratios are machine-relative,
 * so CI can regress on them without depending on absolute host speed.
 *
 * Also measures resilience under overload (shed/timeout ratios for a
 * burst against RejectWhenFull admission control and a tight deadline)
 * and closed-loop recovery from retention decay: the recorded
 * `resilience.recovery_ratio` is deterministically 1.0 because repair
 * re-programs the same weights onto the same crossbars, and CI
 * regresses on it alongside the speedups.
 *
 * Also microbenchmarks the per-request engine overhead (inline mode vs
 * a direct chip call) so queue/promise costs stay visible.
 *
 * Set NEBULA_BENCH_TINY=1 to shrink every study to smoke-test size
 * (small batches, short SNN windows) for CI.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "nn/datasets.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "nn/trainer.hpp"
#include "reliability/fault_model.hpp"
#include "reliability/health.hpp"
#include "runtime/engine.hpp"
#include "runtime/replica.hpp"
#include "snn/convert.hpp"

#include "bench_common.hpp"

namespace nebula {
namespace {

/** CI smoke-test mode: tiny shapes, same code paths. */
bool
tinyMode()
{
    const char *env = std::getenv("NEBULA_BENCH_TINY");
    return env != nullptr && env[0] == '1';
}

/** Quantized MLP prototype + images, built once. */
struct Workload
{
    SyntheticDigits data{256, 16, /*seed=*/5};
    Network net;
    Network floatNet; //!< pre-quantization clone (SNN conversion source)
    QuantizationResult quant;
    std::vector<Tensor> images;

    Workload() : net(buildMlp3(16, 1, 10, /*seed=*/11))
    {
        // A few SGD epochs lift clean accuracy well above chance so the
        // resilience study's clean/degraded/recovered rows measure real
        // classification loss -- an untrained net pins every pass at
        // ~0.09 (pure chance) and hides the decay it is probing for.
        TrainConfig tc;
        tc.epochs = 3;
        SgdTrainer trainer(tc);
        trainer.train(net, data);
        floatNet = net.clone();
        quant = quantizeNetwork(net, data.firstImages(64));
        for (int i = 0; i < data.size(); ++i)
            images.push_back(data.image(i));
    }
};

Workload &
workload()
{
    static Workload w;
    return w;
}

/** One timed serving run; returns images/sec. */
double
measureThroughput(int workers, int batches, double &mean_latency_ms)
{
    Workload &w = workload();
    EngineConfig cfg;
    cfg.numWorkers = workers;
    cfg.queueCapacity = 2 * w.images.size();
    InferenceEngine engine(cfg, makeAnnReplicaFactory(w.net, w.quant));

    // Warm-up: fault in every replica's code/data paths.
    for (auto &f : engine.submitBatch({w.images[0], w.images[1]}))
        f.get();

    // Best-of-3 repetitions: each timed section is only a few ms, so a
    // single scheduler preemption on a small CI host can halve one
    // measurement. The fastest repetition is the least-disturbed one;
    // ratios between studies stay meaningful because every study
    // rejects interference the same way.
    long long served = 0;
    double seconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        long long rep_served = 0;
        for (int b = 0; b < batches; ++b) {
            auto futures = engine.submitBatch(w.images);
            for (auto &future : futures)
                future.get();
            rep_served += static_cast<long long>(futures.size());
        }
        const double rep_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (rep_seconds < seconds) {
            seconds = rep_seconds;
            served = rep_served;
        }
    }

    mean_latency_ms = engine.runtimeStats().scalarAt("latency_ms").mean();
    engine.shutdown();
    return served / seconds;
}

void
printThroughputStudy()
{
    const unsigned cores = std::thread::hardware_concurrency();
    Table table("Serving throughput vs worker count (MLP, ANN mode, " +
                    std::to_string(workload().images.size()) +
                    "-image batches; host has " + std::to_string(cores) +
                    " core(s))",
                {"workers", "images/sec", "speedup vs 1", "mean latency "
                                                          "(ms)"});

    double base = 0.0;
    const std::vector<int> worker_counts =
        tinyMode() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
    const int batches = tinyMode() ? 1 : 2;
    for (int workers : worker_counts) {
        double latency_ms = 0.0;
        const double rate = measureThroughput(workers, batches, latency_ms);
        if (workers == 1)
            base = rate;
        bench::record("images_per_sec.w" + std::to_string(workers), rate);
        bench::record("mean_latency_ms.w" + std::to_string(workers),
                      latency_ms);
        table.row()
            .add(static_cast<long long>(workers))
            .add(rate, 1)
            .add(formatRatio(rate / base))
            .add(latency_ms, 3);
    }
    table.print(std::cout);
    std::cout << "\nSpeedup saturates at the host core count (" << cores
              << "); >2x at 4 workers requires >= 4 cores.\n\n";
}

/**
 * Serve @p images requests through a single-worker engine built from
 * @p factory and return images/sec.
 */
double
measureServingRate(const ReplicaFactory &factory, int images,
                   int timesteps)
{
    Workload &w = workload();
    EngineConfig cfg;
    cfg.numWorkers = 1;
    cfg.defaultTimesteps = std::max(timesteps, 1);
    cfg.queueCapacity = static_cast<size_t>(2 * images + 4);
    InferenceEngine engine(cfg, factory);

    engine.submit(w.images[0]).get(); // warm-up

    std::vector<Tensor> batch(w.images.begin(), w.images.begin() + images);
    // Best-of-3, for the same reason as measureThroughput: the fastest
    // repetition is the one the host scheduler disturbed least.
    double seconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        for (auto &future : engine.submitBatch(batch))
            future.get();
        seconds = std::min(
            seconds,
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count());
    }
    engine.shutdown();
    return images / seconds;
}

/**
 * Fast-path speedup study: the SNN and ANN workloads served with
 * fastEval on vs off. The off runs ARE the pre-optimization baseline --
 * NebulaConfig::fastEval == false selects the original scalar crossbar
 * and chip loops byte-for-byte -- so the speedup column compares
 * against pre-PR behaviour inside one binary.
 */
void
printFastPathStudy()
{
    Workload &w = workload();
    const bool tiny = tinyMode();
    const int snn_images = tiny ? 12 : 64;
    const int snn_timesteps = tiny ? 6 : 16;
    const int ann_images = tiny ? 24 : 128;

    Table table("Fast evaluation paths vs pre-optimization scalar "
                "baseline (1 worker; SNN " +
                    std::to_string(snn_images) + " images x T=" +
                    std::to_string(snn_timesteps) + ", ANN " +
                    std::to_string(ann_images) + " images)",
                {"mode", "path", "images/sec", "speedup"});

    double snn_rates[2] = {0.0, 0.0};
    for (int fast = 0; fast < 2; ++fast) {
        Network clone = w.floatNet.clone();
        SpikingModel snn = convertToSnn(clone, w.data.firstImages(32));
        NebulaConfig chip_cfg;
        chip_cfg.fastEval = fast != 0;
        snn_rates[fast] = measureServingRate(
            makeSnnReplicaFactory(snn, chip_cfg), snn_images,
            snn_timesteps);
    }
    const double snn_speedup = snn_rates[1] / snn_rates[0];
    bench::record("snn.images_per_sec.scalar", snn_rates[0]);
    bench::record("snn.images_per_sec.fast", snn_rates[1]);
    bench::record("snn.speedup", snn_speedup);
    table.row().add("snn").add("scalar").add(snn_rates[0], 1).add("1.00x");
    table.row().add("snn").add("fast").add(snn_rates[1], 1).add(
        formatRatio(snn_speedup));

    double ann_rates[2] = {0.0, 0.0};
    for (int fast = 0; fast < 2; ++fast) {
        NebulaConfig chip_cfg;
        chip_cfg.fastEval = fast != 0;
        ann_rates[fast] = measureServingRate(
            makeAnnReplicaFactory(w.net, w.quant, chip_cfg), ann_images,
            0);
    }

    const double ann_speedup = ann_rates[1] / ann_rates[0];
    bench::record("ann.images_per_sec.scalar", ann_rates[0]);
    bench::record("ann.images_per_sec.fast", ann_rates[1]);
    bench::record("ann.speedup", ann_speedup);
    table.row().add("ann").add("scalar").add(ann_rates[0], 1).add("1.00x");
    table.row().add("ann").add("fast").add(ann_rates[1], 1).add(
        formatRatio(ann_speedup));

    table.print(std::cout);
    std::cout << "\nThe scalar rows run the preserved pre-optimization "
                 "loops (fastEval=false); differential tests pin both "
                 "paths to the same numbers.\n\n";
}

/**
 * Overload + closed-loop-recovery study.
 *
 * Overload: a burst far larger than the queue is thrown at a small
 * pool under RejectWhenFull (recording `overload.shed.ratio`) and
 * under a tight per-request deadline (recording
 * `overload.timeout.ratio`). The ratios are load-dependent
 * observability numbers, not regression-gated -- they exist so the
 * BENCH artifact shows how admission control behaved on this host.
 *
 * Recovery: an inline engine with the HealthMonitor attached serves an
 * accuracy pass, has its live crossbars re-programmed under a
 * retention-decay ramp via withReplicas (the silent-drift scenario),
 * serves a degraded pass during which a canary probe catches the drift
 * and repairs in place, then serves a recovered pass. Repair is a
 * clean re-programming of the same weights, so the recovered pass is
 * bit-identical to the clean one and `resilience.recovery_ratio`
 * (recovered correct / clean correct) is deterministically 1.0 -- CI
 * regresses on it.
 */
void
printResilienceStudy()
{
    Workload &w = workload();
    const bool tiny = tinyMode();

    // -- overload: shed + timeout ratios under a burst -------------------
    const int burst = tiny ? 64 : 256;
    std::vector<Tensor> images;
    for (int i = 0; i < burst; ++i)
        images.push_back(w.images[static_cast<size_t>(i) % w.images.size()]);

    long long shed = 0;
    long long shed_delivered = 0;
    {
        EngineConfig cfg;
        cfg.numWorkers = 2;
        cfg.queueCapacity = 16;
        cfg.shedPolicy = ShedPolicy::RejectWhenFull;
        InferenceEngine engine(cfg, makeAnnReplicaFactory(w.net, w.quant));
        for (auto &future : engine.submitBatch(images)) {
            const InferenceResult result = future.get();
            if (result.ok())
                ++shed_delivered;
            else if (result.error == RuntimeErrorKind::Shed)
                ++shed;
        }
        engine.shutdown();
    }

    long long timeouts = 0;
    long long deadline_delivered = 0;
    {
        EngineConfig cfg;
        cfg.numWorkers = 1;
        cfg.queueCapacity = images.size() + 4;
        cfg.defaultDeadlineNs = 1000000; // 1 ms: the burst tail expires
        InferenceEngine engine(cfg, makeAnnReplicaFactory(w.net, w.quant));
        for (auto &future : engine.submitBatch(images)) {
            const InferenceResult result = future.get();
            if (result.ok())
                ++deadline_delivered;
            else if (result.error == RuntimeErrorKind::Timeout)
                ++timeouts;
        }
        engine.shutdown();
    }

    const double shed_ratio = static_cast<double>(shed) / burst;
    const double timeout_ratio = static_cast<double>(timeouts) / burst;
    bench::record("overload.shed.ratio", shed_ratio);
    bench::record("overload.timeout.ratio", timeout_ratio);

    Table overload("Overload: " + std::to_string(burst) +
                       "-request burst vs admission control",
                   {"policy", "delivered", "shed", "timeouts", "ratio"});
    overload.row()
        .add("reject-when-full (q=16, 2 workers)")
        .add(shed_delivered)
        .add(shed)
        .add(0ll)
        .add(formatDouble(shed_ratio, 3) + " shed");
    overload.row()
        .add("1 ms deadline (1 worker)")
        .add(deadline_delivered)
        .add(0ll)
        .add(timeouts)
        .add(formatDouble(timeout_ratio, 3) + " timeout");
    overload.print(std::cout);

    // -- closed-loop recovery --------------------------------------------
    const int eval_images = tiny ? 32 : 128;
    HealthConfig hc;
    hc.probeEvery = 16;
    hc.tolerance = 1e-6;
    hc.repairWith = {}; // repair = clean re-programming pass
    std::vector<Tensor> canaries;
    canaries.push_back(w.images[0]);
    canaries.push_back(w.images[1]);
    auto health = std::make_shared<HealthMonitor>(hc, std::move(canaries));

    EngineConfig cfg;
    cfg.numWorkers = 0; // inline: deterministic probe schedule
    cfg.health = health;
    InferenceEngine engine(cfg, makeAnnReplicaFactory(w.net, w.quant));

    const auto countCorrect = [&]() {
        std::vector<Tensor> batch(w.images.begin(),
                                  w.images.begin() + eval_images);
        long long correct = 0;
        auto futures = engine.submitBatch(batch);
        for (int i = 0; i < eval_images; ++i) {
            const InferenceResult result =
                futures[static_cast<size_t>(i)].get();
            if (result.ok() && result.predictedClass == w.data.label(i))
                ++correct;
        }
        return correct;
    };

    const long long clean = countCorrect();

    ReliabilityConfig decay; // aged crossbars: walls relaxed mid-service
    decay.faults = std::make_shared<RetentionDecayFaultModel>(
        /*elapsed=*/5.0, /*tau=*/1.0, /*sigma=*/0.3);
    engine.withReplicas(
        [&](ChipReplica &replica) { replica.reprogram(decay); });

    const long long degraded = countCorrect();
    const long long recovered = countCorrect();
    engine.shutdown();

    const double recovery_ratio =
        static_cast<double>(recovered) / std::max(1ll, clean);
    bench::record("resilience.accuracy.clean",
                  static_cast<double>(clean) / eval_images);
    bench::record("resilience.accuracy.degraded",
                  static_cast<double>(degraded) / eval_images);
    bench::record("resilience.accuracy.recovered",
                  static_cast<double>(recovered) / eval_images);
    bench::record("resilience.recovery_ratio", recovery_ratio);

    Table recovery("Closed-loop recovery: retention decay injected "
                   "mid-run, canary probe every " +
                       std::to_string(hc.probeEvery) + " requests (" +
                       std::to_string(eval_images) + " images/pass)",
                   {"phase", "correct", "accuracy"});
    recovery.row().add("clean").add(clean).add(
        formatDouble(100.0 * clean / eval_images, 1) + "%");
    recovery.row().add("decayed").add(degraded).add(
        formatDouble(100.0 * degraded / eval_images, 1) + "%");
    recovery.row().add("recovered").add(recovered).add(
        formatDouble(100.0 * recovered / eval_images, 1) + "%");
    recovery.print(std::cout);

    std::cout << "\nhealth: " << health->probes() << " probes, "
              << health->degradations() << " degradation(s), "
              << health->repairs() << " repair(s); recovery ratio "
              << formatDouble(recovery_ratio, 3)
              << " (repair re-programs the same weights, so recovered "
                 "== clean exactly)\n\n";
}

/** Per-request overhead: inline engine vs direct chip call. */
void
BM_EngineInlineRequest(benchmark::State &state)
{
    Workload &w = workload();
    EngineConfig cfg;
    cfg.numWorkers = 0;
    InferenceEngine engine(cfg, makeAnnReplicaFactory(w.net, w.quant));
    size_t i = 0;
    for (auto _ : state) {
        auto future = engine.submit(w.images[i++ % w.images.size()]);
        benchmark::DoNotOptimize(future.get().predictedClass);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineInlineRequest)->Unit(benchmark::kMicrosecond);

void
BM_EnginePoolRequest(benchmark::State &state)
{
    Workload &w = workload();
    EngineConfig cfg;
    cfg.numWorkers = static_cast<int>(state.range(0));
    InferenceEngine engine(cfg, makeAnnReplicaFactory(w.net, w.quant));
    size_t i = 0;
    for (auto _ : state) {
        auto future = engine.submit(w.images[i++ % w.images.size()]);
        benchmark::DoNotOptimize(future.get().predictedClass);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnginePoolRequest)->Arg(1)->Arg(4)->Unit(
    benchmark::kMicrosecond);

} // namespace
} // namespace nebula

int
main(int argc, char **argv)
{
    nebula::printThroughputStudy();
    nebula::printFastPathStudy();
    nebula::printResilienceStudy();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    nebula::bench::writeBenchSummary(argv[0]);
    return 0;
}
