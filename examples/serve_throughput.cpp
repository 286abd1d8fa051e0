/**
 * @file
 * Serving example: the concurrent inference runtime end-to-end on the
 * synthetic digit dataset.
 *
 *  1. Train a small MLP and quantize it to the 4-bit datapath.
 *  2. Stand up an InferenceEngine whose workers each hold a programmed
 *     NebulaChip replica, and serve the test set through submitBatch.
 *  3. Do the same in SNN mode (per-request encoder seeds keep results
 *     reproducible regardless of worker interleaving).
 *  4. Print accuracy, throughput, latency distribution and the merged
 *     chip counters.
 *
 * Build & run:  ./examples-bin/serve_throughput
 *
 * Model:        --model mlp3|lenet5 selects the served topology; the
 * trained prototype comes from the serving ServableLoader, the same
 * loader the multi-tenant registry programs swap-ins from, so the
 * example and the server share model-construction code.
 *
 * Resilience:   --deadline-ms N attaches an N-millisecond deadline to
 * every request (expired ones resolve to typed Timeout outcomes
 * instead of being evaluated); --shed-policy block|reject|deadline
 * selects the admission-control policy (reject sheds when the queue is
 * full, deadline sheds at submit when the predicted queue wait already
 * blows the budget). --chaos runs an extra ANN phase with the
 * closed-loop health monitor attached: mid-run the live replicas are
 * re-programmed under a retention-decay ramp (aged crossbars serving
 * silently wrong logits), the canary probes catch the drift, repair
 * re-programs in place, and the scoreboard shows accuracy before the
 * fault, while degraded, and after recovery.
 *
 * Telemetry:    --admin-port P exposes /metrics (Prometheus), /statusz
 * (JSON metric snapshot) and /healthz on 127.0.0.1:P for the lifetime
 * of the run (0 = ephemeral, the bound port is printed);
 * --admin-wait-sec S keeps the process (and the endpoint) alive S
 * seconds after serving completes so an external scraper can read the
 * final counters. The CI telemetry-smoke job curls exactly these.
 *
 * Integrity:    --abft programs every replica with the checksum column
 * and verifies each crossbar read against its input-weighted
 * expectation; flagged requests are re-executed once on a functional
 * (no-crossbar) fallback replica before the promise settles. The
 * scoreboard prints the checks / violations / re-executions billed on
 * the results (zero violations expected on clean arrays).
 *
 * Tracing:      ./examples-bin/serve_throughput --trace out.json
 * records every request's latency breakdown, the chip-level layer
 * evaluations and the NoC transfers nested inside them as Chrome
 * trace-event JSON -- open out.json in ui.perfetto.dev. Use
 * --sample N to keep every Nth request's spans (bounds trace size).
 * NEBULA_TRACE=out.json works for any binary, without flags.
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "nn/datasets.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "nn/trainer.hpp"
#include "obs/trace.hpp"
#include "reliability/fault_model.hpp"
#include "reliability/health.hpp"
#include "runtime/engine.hpp"
#include "runtime/replica.hpp"
#include "serving/admin.hpp"
#include "serving/models.hpp"
#include "snn/convert.hpp"

using namespace nebula;

namespace {

struct ServeOutcome
{
    double accuracy = 0.0;
    double imagesPerSec = 0.0;
    double meanLatencyMs = 0.0;
    double maxLatencyMs = 0.0;
    long long crossbarEvals = 0;
    long long spikes = 0;
    long long delivered = 0;
    long long shed = 0;
    long long timeouts = 0;
    long long faults = 0;
    long long integrityChecks = 0;
    long long integrityViolations = 0;
    long long integrityReExecuted = 0;
};

/** Serve every test image through the engine; gather the scoreboard. */
ServeOutcome
serve(InferenceEngine &engine, const Dataset &test)
{
    std::vector<Tensor> images;
    for (int i = 0; i < test.size(); ++i)
        images.push_back(test.image(i));

    const auto start = std::chrono::steady_clock::now();
    auto futures = engine.submitBatch(images);
    ServeOutcome outcome;
    int correct = 0;
    for (int i = 0; i < test.size(); ++i) {
        const InferenceResult result = futures[static_cast<size_t>(i)].get();
        if (result.ok()) {
            ++outcome.delivered;
            correct += (result.predictedClass == test.label(i));
            outcome.integrityChecks += result.integrity.checks;
            outcome.integrityViolations += result.integrity.violations;
            outcome.integrityReExecuted += result.integrity.reExecuted ? 1 : 0;
        } else if (result.error == RuntimeErrorKind::Shed) {
            ++outcome.shed;
        } else if (result.error == RuntimeErrorKind::Timeout) {
            ++outcome.timeouts;
        } else {
            ++outcome.faults;
        }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    outcome.accuracy = outcome.delivered > 0
                           ? 100.0 * correct / outcome.delivered
                           : 0.0;
    outcome.imagesPerSec = test.size() / seconds;
    const StatGroup stats = engine.runtimeStats();
    outcome.meanLatencyMs = stats.scalarAt("latency_ms").mean();
    outcome.maxLatencyMs = stats.scalarAt("latency_ms").max();
    const ChipStats chip = engine.chipStats();
    outcome.crossbarEvals = chip.crossbarEvals;
    outcome.spikes = chip.spikes;
    return outcome;
}

void
addOutcomeRow(Table &table, const std::string &mode,
              const ServeOutcome &o)
{
    table.row()
        .add(mode)
        .add(formatDouble(o.accuracy, 1) + "%")
        .add(o.imagesPerSec, 1)
        .add(o.meanLatencyMs, 3)
        .add(o.maxLatencyMs, 3)
        .add(o.delivered)
        .add(o.shed)
        .add(o.timeouts)
        .add(o.crossbarEvals);
}

/**
 * Chaos phase: serve with the health monitor attached, age the live
 * replicas mid-run with a retention-decay ramp, and let the canary
 * probe / repair loop pull accuracy back.
 */
void
runChaosPhase(const Network &net, const QuantizationResult &quant,
              const SyntheticDigits &train_set, const Dataset &test,
              int workers)
{
    HealthConfig hc;
    hc.probeEvery = 8;       // probe often: the demo run is short
    hc.tolerance = 1e-6;     // any drift at all trips the repair
    hc.repairWith = {};      // repair = clean re-programming pass
    std::vector<Tensor> canaries;
    canaries.push_back(train_set.image(0));
    canaries.push_back(train_set.image(1));
    auto health = std::make_shared<HealthMonitor>(hc, std::move(canaries));
    health->setFallback(makeFunctionalAnnReplicaFactory(net));

    EngineConfig cfg;
    cfg.numWorkers = workers;
    cfg.queueCapacity = 64;
    cfg.health = health;
    InferenceEngine engine(cfg, makeAnnReplicaFactory(net, quant));

    const ServeOutcome clean = serve(engine, test);

    // Age every serving crossbar in place: re-program under a
    // retention-decay ramp (walls relaxed toward the track middle) --
    // the silent-drift scenario the monitor exists for.
    ReliabilityConfig decay;
    decay.faults = std::make_shared<RetentionDecayFaultModel>(
        /*elapsed=*/5.0, /*tau=*/1.0, /*sigma=*/0.3);
    engine.withReplicas(
        [&](ChipReplica &replica) { replica.reprogram(decay); });

    const ServeOutcome degraded = serve(engine, test);
    const ServeOutcome recovered = serve(engine, test);
    engine.shutdown();

    Table table("Chaos: retention decay injected mid-run, closed-loop "
                "repair (probe every " +
                    std::to_string(hc.probeEvery) + " requests)",
                {"phase", "accuracy", "images/sec", "mean latency (ms)",
                 "max latency (ms)", "delivered", "shed", "timeouts",
                 "crossbar evals"});
    addOutcomeRow(table, "clean", clean);
    addOutcomeRow(table, "decayed", degraded);
    addOutcomeRow(table, "recovered", recovered);
    table.print(std::cout);

    std::cout << "\nhealth: " << health->probes() << " probes, "
              << health->degradations() << " degradation(s), "
              << health->repairs() << " repair(s), "
              << health->demotions() << " demotion(s)\n";
    for (int slot = 0; slot < std::max(1, workers); ++slot)
        std::cout << "  replica " << slot << ": "
                  << toString(health->health(slot)) << "\n";
    std::cout << "\nThe decayed phase serves whatever drift the probes "
                 "have not caught yet; the\nrecovered phase is "
                 "bit-identical to clean -- repair re-programs the "
                 "same weights\nonto the same crossbars.\n\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    std::string model_name = "mlp3";
    obs::TraceConfig trace_cfg;
    double deadline_ms = 0.0;
    ShedPolicy shed_policy = ShedPolicy::Block;
    bool chaos = false;
    bool abft = false;
    bool admin = false;
    int admin_port = 0;
    int admin_wait_sec = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
            model_name = argv[++i];
            if (model_name != "mlp3" && model_name != "lenet5") {
                std::cerr << "unknown model '" << model_name
                          << "' (mlp3|lenet5)\n";
                return 2;
            }
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--sample") == 0 && i + 1 < argc) {
            trace_cfg.sampleEvery = std::max(1ll, std::atoll(argv[++i]));
        } else if (std::strcmp(argv[i], "--deadline-ms") == 0 &&
                   i + 1 < argc) {
            deadline_ms = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--shed-policy") == 0 &&
                   i + 1 < argc) {
            const std::string policy = argv[++i];
            if (policy == "block") {
                shed_policy = ShedPolicy::Block;
            } else if (policy == "reject") {
                shed_policy = ShedPolicy::RejectWhenFull;
            } else if (policy == "deadline") {
                shed_policy = ShedPolicy::DeadlineAware;
            } else {
                std::cerr << "unknown shed policy '" << policy
                          << "' (block|reject|deadline)\n";
                return 2;
            }
        } else if (std::strcmp(argv[i], "--chaos") == 0) {
            chaos = true;
        } else if (std::strcmp(argv[i], "--abft") == 0) {
            abft = true;
        } else if (std::strcmp(argv[i], "--admin-port") == 0 &&
                   i + 1 < argc) {
            admin = true;
            admin_port = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--admin-wait-sec") == 0 &&
                   i + 1 < argc) {
            admin_wait_sec = std::atoi(argv[++i]);
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--model mlp3|lenet5]"
                         " [--trace out.json] [--sample N]"
                         " [--deadline-ms N]"
                         " [--shed-policy block|reject|deadline]"
                         " [--chaos] [--abft] [--admin-port P]"
                         " [--admin-wait-sec S]\n";
            return 2;
        }
    }

    // Telemetry endpoint over the process-global metrics registry (the
    // default handlers): up before serving starts, so a scraper watches
    // the counters move while the run is in flight.
    serving::AdminServer admin_server{[&] {
        serving::AdminConfig cfg;
        cfg.port = static_cast<uint16_t>(admin_port);
        return cfg;
    }()};
    if (admin) {
        admin_server.start();
        std::cout << "admin endpoint on 127.0.0.1:" << admin_server.port()
                  << " (/metrics /statusz /healthz)\n"
                  << std::flush;
    }
    if (!trace_path.empty()) {
        obs::setThreadName("main");
        obs::TraceSession::start(trace_cfg);
    }

    std::cout << "== NEBULA serving quickstart ==\n\n";

    // 1. Train + quantize via the shared servable loader (the same
    //    prototype the multi-tenant registry programs swap-ins from).
    serving::ServableModelSpec spec;
    spec.family = model_name;
    spec.trainImages = 1200;
    spec.epochs = 6;
    SyntheticDigits train_set(1200, spec.imageSize, /*seed=*/1);
    SyntheticDigits test_set(300, spec.imageSize, /*seed=*/2);

    auto &loader = serving::ServableLoader::global();
    auto [net, quant] = loader.quantized(spec);

    const int workers =
        std::max(2u, std::thread::hardware_concurrency());
    std::cout << "serving " << test_set.size() << " images (" << model_name
              << ") with " << workers << " workers";
    if (deadline_ms > 0.0)
        std::cout << ", " << deadline_ms << " ms deadline";
    if (shed_policy != ShedPolicy::Block)
        std::cout << ", shed policy "
                  << (shed_policy == ShedPolicy::RejectWhenFull
                          ? "reject-when-full"
                          : "deadline-aware");
    if (abft)
        std::cout << ", ABFT checksum columns on";
    std::cout << "\n\n";

    const uint64_t deadline_ns =
        deadline_ms > 0.0 ? static_cast<uint64_t>(1e6 * deadline_ms) : 0;

    // Checksum columns on every programmed crossbar when --abft; the
    // flagged-request fallback is the mode's functional backend (no
    // crossbars to corrupt), mirroring the serving registry's wiring.
    NebulaConfig chip_cfg;
    chip_cfg.abft = abft;

    // 2. ANN-mode engine. -------------------------------------------------
    EngineConfig ann_cfg;
    ann_cfg.numWorkers = workers;
    ann_cfg.queueCapacity = 64;
    ann_cfg.defaultDeadlineNs = deadline_ns;
    ann_cfg.shedPolicy = shed_policy;
    if (abft)
        ann_cfg.abft.fallback = makeFunctionalAnnReplicaFactory(net);
    InferenceEngine ann_engine(ann_cfg,
                               makeAnnReplicaFactory(net, quant, chip_cfg));
    const ServeOutcome ann = serve(ann_engine, test_set);
    ann_engine.shutdown();

    // 3. SNN-mode engine. -------------------------------------------------
    SpikingModel snn = loader.spiking(spec);
    EngineConfig snn_cfg;
    snn_cfg.numWorkers = workers;
    snn_cfg.defaultTimesteps = 40;
    snn_cfg.defaultDeadlineNs = deadline_ns;
    snn_cfg.shedPolicy = shed_policy;
    if (abft)
        snn_cfg.abft.fallback = makeFunctionalSnnReplicaFactory(
            net, loader.calibration(spec));
    InferenceEngine snn_engine(snn_cfg, makeSnnReplicaFactory(snn, chip_cfg));
    const ServeOutcome snn_out = serve(snn_engine, test_set);
    snn_engine.shutdown();

    // 4. Scoreboard. ------------------------------------------------------
    Table table("Worker-pool serving: ANN vs SNN mode",
                {"mode", "accuracy", "images/sec", "mean latency (ms)",
                 "max latency (ms)", "delivered", "shed", "timeouts",
                 "crossbar evals"});
    addOutcomeRow(table, "ANN", ann);
    addOutcomeRow(table, "SNN (T=40)", snn_out);
    table.print(std::cout);

    if (abft)
        std::cout << "\nintegrity: ANN "
                  << ann.integrityChecks << " checksum comparisons, "
                  << ann.integrityViolations << " violation(s), "
                  << ann.integrityReExecuted << " re-executed; SNN "
                  << snn_out.integrityChecks << " comparisons, "
                  << snn_out.integrityViolations << " violation(s), "
                  << snn_out.integrityReExecuted << " re-executed\n";

    std::cout << "\nDeterminism: every request carries its own encoder "
                 "seed, so re-serving the same\nbatch -- with any worker "
                 "count, including the inline numWorkers=0 mode -- "
                 "reproduces\nbit-identical logits.\n\n";

    // 5. Chaos phase (opt-in). ---------------------------------------------
    if (chaos)
        runChaosPhase(net, quant, train_set, test_set, workers);

    // 6. Trace output. ----------------------------------------------------
    if (!trace_path.empty()) {
        auto session = obs::TraceSession::stop();
        if (session) {
            if (!session->writeJson(trace_path)) {
                std::cerr << "failed to write trace to " << trace_path
                          << "\n";
                return 1;
            }
            std::cout << "\nwrote " << session->eventCount()
                      << " trace events (" << session->droppedEvents()
                      << " dropped) across " << session->tracks().size()
                      << " thread tracks to " << trace_path
                      << "\nopen it in ui.perfetto.dev or "
                         "chrome://tracing\n";
        }
    }

    if (admin && admin_wait_sec > 0) {
        std::cout << "\nholding admin endpoint on 127.0.0.1:"
                  << admin_server.port() << " for " << admin_wait_sec
                  << " s...\n"
                  << std::flush;
        std::this_thread::sleep_for(std::chrono::seconds(admin_wait_sec));
    }
    return 0;
}
