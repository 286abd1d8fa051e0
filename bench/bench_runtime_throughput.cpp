/**
 * @file
 * Serving-throughput study for the concurrent inference runtime:
 * images/sec of the worker-pool engine at 1, 2, 4 and 8 workers on the
 * paper's MLP workload (quantized, ANN mode, synthetic digits), with
 * speedup relative to one worker and the mean request latency. Scaling
 * tops out at the machine's core count: on an N-core host the curve
 * should be near-linear up to N workers and flat beyond.
 *
 * Also measures single-thread chip speed in both modes: runAnn/runSnn
 * called directly, each repetition interleaved with a fixed calibration
 * kernel built like the crossbar kernels, best of many on every CPU in
 * turn. The recorded `ann.images_per_calib` / `snn.images_per_calib`
 * (mlp3) and `ann_conv.images_per_calib` / `snn_conv.images_per_calib`
 * (LeNet-5) are images served in one calibration-kernel time: host speed divides out, so CI can
 * regress on them, and a chip that does more work per image shows as
 * a drop.
 *
 * Also measures resilience under overload (shed/timeout ratios for a
 * burst against RejectWhenFull admission control and a tight deadline)
 * and closed-loop recovery from retention decay: the recorded
 * `resilience.recovery_ratio` is deterministically 1.0 because repair
 * re-programs the same weights onto the same crossbars, and CI
 * regresses on it alongside the images/calib ratios.
 *
 * Also microbenchmarks the per-request engine overhead (inline mode vs
 * a direct chip call) so queue/promise costs stay visible.
 *
 * Set NEBULA_BENCH_TINY=1 to shrink every study to smoke-test size
 * (small batches and image counts) for CI.
 */

#include <benchmark/benchmark.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <thread>
#include <vector>

#include "common/simd.hpp"
#include "common/table.hpp"
#include "nn/datasets.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "nn/trainer.hpp"
#include "reliability/fault_model.hpp"
#include "reliability/health.hpp"
#include "runtime/engine.hpp"
#include "runtime/replica.hpp"
#include "runtime/request.hpp"
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

constexpr int kCalibN = 128;

/**
 * The calibration kernel: a 128x128 double mat-vec, 16 times over, in
 * the register-tiled shape of the crossbar kernels (16 column sums held
 * in registers across the row walk). It is built with the same target
 * clones, so the host state that slows one (clock, ISA, cache pressure)
 * slows the other, while its own time is independent of the chip code.
 * Returns a checksum so the work cannot be elided.
 */
NEBULA_TARGET_CLONES double
calibrationKernel(const double *m, double *v)
{
    double out[kCalibN];
    for (int rep = 0; rep < 16; ++rep) {
        for (int j0 = 0; j0 < kCalibN; j0 += 16) {
            double acc[16] = {};
            for (int i = 0; i < kCalibN; ++i)
                for (int t = 0; t < 16; ++t)
                    acc[t] += v[i] * m[i * kCalibN + j0 + t];
            std::copy(acc, acc + 16, out + j0);
        }
        for (int j = 0; j < kCalibN; ++j)
            v[j] = out[j] * (1.0 / kCalibN);
    }
    return v[0];
}

/** Best-of-N timings of one chip workload and of the calibration. */
struct CalibratedRate
{
    double imagesPerSec = 0.0;
    double imagesPerCalib = 0.0;
};

/**
 * Time @p run_all (serving @p images images) against the calibration
 * kernel on this thread: each repetition runs the kernel, then the
 * workload, and the fastest of each is kept -- the least-disturbed
 * measurement of both on the same core. The thread visits every CPU it
 * may use, for a second in total: on a shared host a core whose
 * neighbour is busy can stay slow for a whole run, and the SNN slows
 * more there than the kernel does, so both minima are taken where the
 * host was quietest.
 */
template <typename RunAll>
CalibratedRate
measureCalibrated(int images, RunAll &&run_all)
{
    // Cache-line aligned, so the kernel's speed does not depend on
    // where the heap happens to place its operands.
    alignas(64) static double m[kCalibN * kCalibN];
    alignas(64) static double v[kCalibN];
    for (int k = 0; k < kCalibN * kCalibN; ++k)
        m[k] = static_cast<double>(k % 7) - 3.0;

    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed))
                cpus.push_back(cpu);
    if (cpus.empty())
        cpus.push_back(-1); // affinity unreadable: stay on this core

    using Clock = std::chrono::steady_clock;
    const auto seconds = [](auto &&fn) {
        const auto start = Clock::now();
        fn();
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    const auto per_cpu = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / cpus.size()));
    double calib_s = std::numeric_limits<double>::infinity();
    double run_s = std::numeric_limits<double>::infinity();
    for (int cpu : cpus) {
        if (cpu >= 0) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            sched_setaffinity(0, sizeof one, &one);
        }
        run_all(); // warm-up: fault in code, caches and workspaces
        const auto window_end = Clock::now() + per_cpu;
        for (int rep = 0; rep < 9 || Clock::now() < window_end; ++rep) {
            std::fill(v, v + kCalibN, 1.0);
            calib_s = std::min(calib_s, seconds([&] {
                                   benchmark::DoNotOptimize(
                                       calibrationKernel(m, v));
                               }));
            run_s = std::min(run_s, seconds(run_all));
        }
    }
    if (cpus.front() >= 0)
        sched_setaffinity(0, sizeof allowed, &allowed);

    CalibratedRate rate;
    rate.imagesPerSec = images / run_s;
    rate.imagesPerCalib = rate.imagesPerSec * calib_s;
    return rate;
}

/**
 * Single-thread chip speed: the SNN and ANN workloads, plus a LeNet-5
 * conv ANN, run through NebulaChip::runSnn/runAnn directly (no engine,
 * no worker hand-offs), normalized by the calibration kernel.
 */
void
printChipSpeedStudy()
{
    Workload &w = workload();
    const bool tiny = tinyMode();
    const int snn_images = tiny ? 12 : 64;
    const int snn_timesteps = 16;
    const int ann_images = tiny ? 24 : 128;
    const int conv_images = tiny ? 8 : 32;
    const int snn_conv_images = tiny ? 4 : 16;

    Table table("Single-thread chip speed (SNN " +
                    std::to_string(snn_images) + " images x T=" +
                    std::to_string(snn_timesteps) + ", ANN " +
                    std::to_string(ann_images) + " images, conv ANN " +
                    std::to_string(conv_images) + " images, conv SNN " +
                    std::to_string(snn_conv_images) + " images x T=" +
                    std::to_string(snn_timesteps) + ")",
                {"mode", "images/sec", "images/calib"});

    Network clone = w.floatNet.clone();
    SpikingModel snn = convertToSnn(clone, w.data.firstImages(32));
    NebulaChip snn_chip;
    snn_chip.programSnn(snn);
    const CalibratedRate snn_rate = measureCalibrated(snn_images, [&] {
        for (int i = 0; i < snn_images; ++i)
            benchmark::DoNotOptimize(
                snn_chip
                    .runSnn(w.images[static_cast<size_t>(i)], snn_timesteps,
                            deriveRequestSeed(1, static_cast<uint64_t>(i)))
                    .totalSpikes);
    });

    NebulaChip ann_chip;
    ann_chip.programAnn(w.net, w.quant);
    const CalibratedRate ann_rate = measureCalibrated(ann_images, [&] {
        for (int i = 0; i < ann_images; ++i)
            benchmark::DoNotOptimize(
                ann_chip.runAnn(w.images[static_cast<size_t>(i)]).data());
    });

    // The conv ANN path (batched crossbar rows, im2col gather): a
    // seeded LeNet-5 on the same 16 px images, quantized on a few of
    // them without training, so tiny mode stays cheap.
    Network lenet = buildLenet5(16, 1, 10, /*seed=*/13);
    const QuantizationResult lenet_quant =
        quantizeNetwork(lenet, w.data.firstImages(8));
    NebulaChip conv_chip;
    conv_chip.programAnn(lenet, lenet_quant);
    const CalibratedRate conv_rate = measureCalibrated(conv_images, [&] {
        for (int i = 0; i < conv_images; ++i)
            benchmark::DoNotOptimize(
                conv_chip.runAnn(w.images[static_cast<size_t>(i)]).data());
    });

    // The SNN conv path (per-window crossbar reads of spike windows):
    // the same seeded LeNet-5, converted on the same images.
    Network lenet_float = buildLenet5(16, 1, 10, /*seed=*/13);
    SpikingModel lenet_snn =
        convertToSnn(lenet_float, w.data.firstImages(8));
    NebulaChip snn_conv_chip;
    snn_conv_chip.programSnn(lenet_snn);
    const CalibratedRate snn_conv_rate =
        measureCalibrated(snn_conv_images, [&] {
            for (int i = 0; i < snn_conv_images; ++i)
                benchmark::DoNotOptimize(
                    snn_conv_chip
                        .runSnn(w.images[static_cast<size_t>(i)],
                                snn_timesteps,
                                deriveRequestSeed(1, static_cast<uint64_t>(i)))
                        .totalSpikes);
        });

    for (const auto &[mode, rate] :
         {std::pair<const char *, CalibratedRate>{"snn", snn_rate},
          std::pair<const char *, CalibratedRate>{"ann", ann_rate},
          std::pair<const char *, CalibratedRate>{"ann_conv", conv_rate},
          std::pair<const char *, CalibratedRate>{"snn_conv",
                                                  snn_conv_rate}}) {
        const std::string prefix = mode;
        bench::record(prefix + ".images_per_sec", rate.imagesPerSec);
        bench::record(prefix + ".images_per_calib", rate.imagesPerCalib);
        table.row()
            .add(mode)
            .add(rate.imagesPerSec, 1)
            .add(rate.imagesPerCalib, 4);
    }
    table.print(std::cout);
    std::cout << "\nimages/calib = images served in one time of the "
                 "calibration kernel (a 128x128 double mat-vec x16) on the "
                 "same thread.\n\n";
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
    // Single-thread timing first, while the heap holds only this
    // thread's allocations.
    nebula::printChipSpeedStudy();
    nebula::printThroughputStudy();
    nebula::printResilienceStudy();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    nebula::bench::writeBenchSummary(argv[0]);
    return 0;
}
