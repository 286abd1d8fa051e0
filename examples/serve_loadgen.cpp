/**
 * @file
 * Multi-tenant serving loadgen: stands up the full serving stack --
 * ModelRegistry (weight-swap scheduler) behind a ServingServer on a
 * loopback port -- then drives open-loop traffic from several tenants
 * over real sockets with the async client.
 *
 * Each tenant runs its own connection and walks the model list in
 * runs of --run-length requests; with more models than
 * --resident slots this forces weight swaps, whose write-verify cost
 * (program pulses / energy) the registry accounts and this tool
 * prints. Arrivals are open-loop: requests are fired on a fixed
 * schedule regardless of completions, so overload shows up as typed
 * Shed/QuotaExceeded outcomes rather than as a slowed-down generator.
 *
 * Exit code: 0 iff every request resolved to a *typed wire outcome*
 * (ok or a protocol/serving error) and --require-swaps was met; any
 * client-local failure (connection lost, send failure) or exception
 * is a hard failure. The CI serving-smoke job runs exactly this.
 *
 * Build & run:  ./examples-bin/serve_loadgen
 *   --tenants N          tenant connections (default 2)
 *   --requests N         requests per tenant (default 48)
 *   --models a,b,c       catalog ids (default mlp3/ann,mlp3/snn,lenet5/ann)
 *   --resident K         registry resident capacity (default 2)
 *   --run-length N       requests before a tenant switches model (8)
 *   --rate R             per-tenant arrivals/sec (default 150)
 *   --timesteps T        SNN/hybrid evidence window (default 10)
 *   --quota-rps R        tenant0's admission quota (0 = unlimited)
 *   --quota-burst B      tenant0's burst allowance (default 8)
 *   --require-swaps N    fail unless the registry swapped >= N times
 *   --slo-ms X           per-request SLO target; prints the rolling
 *                        per-tenant SLO scoreboard and exits non-zero
 *                        when any (tenant, model) error budget is
 *                        exhausted (burn rate >= 1)
 *   --admin-port P       expose /metrics /statusz /healthz on P
 *                        (0 = ephemeral; the bound port is printed)
 *   --admin-wait-sec S   keep the server (and admin endpoint) up S
 *                        seconds after the load completes, so an
 *                        external scraper can read the final state
 *   --abft               online ABFT integrity checking: checksum
 *                        columns on every chip servable, hedged
 *                        re-execution of flagged requests on the
 *                        functional fallback, health-probe escalation
 *   --fault-rate R       program every chip servable under a stuck-at
 *                        fault map (rate R, hard walls write-verify
 *                        cannot free). Enables the integrity
 *                        cross-check: every Ok ANN response is compared
 *                        against a clean-reference chip programmed from
 *                        the same prototype, and the run exits non-zero
 *                        if any response is both corrupt and unflagged
 *                        (silent corruption). The CI integrity-smoke
 *                        job runs exactly this with --abft on.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "nn/datasets.hpp"
#include "obs/metrics.hpp"
#include "reliability/fault_model.hpp"
#include "runtime/replica.hpp"
#include "serving/client.hpp"
#include "serving/models.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"

using namespace nebula;
using namespace nebula::serving;

namespace {

struct TenantOutcome
{
    std::string tenant;
    long long sent = 0;
    long long ok = 0;
    long long quotaShed = 0;
    long long engineShed = 0;
    long long timeouts = 0;
    long long otherTyped = 0;  //!< replica fault, unknown model, ...
    long long untyped = 0;     //!< connection lost / send failed

    // ABFT verdicts from the v3 frame header, plus the loadgen's own
    // clean-reference cross-check (ANN responses only -- SNN logits
    // depend on the server-assigned request id's encoder seed).
    long long checked = 0;          //!< responses that ran checksums
    long long flagged = 0;          //!< violation flag on the wire
    long long reExecuted = 0;       //!< hedged re-runs on the fallback
    long long corrupt = 0;          //!< prediction != clean reference
    long long corruptUnflagged = 0; //!< silent corruption (the failure)
    std::vector<double> latenciesMs;

    double percentile(double p) const
    {
        if (latenciesMs.empty())
            return 0.0;
        std::vector<double> sorted = latenciesMs;
        std::sort(sorted.begin(), sorted.end());
        const size_t idx = static_cast<size_t>(
            p * static_cast<double>(sorted.size() - 1));
        return sorted[idx];
    }
};

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** One tenant's open-loop run: fire on schedule, then collect. */
TenantOutcome
runTenant(const std::string &tenant, uint16_t port,
          const std::vector<std::string> &models, int requests,
          int run_length, double rate, int timesteps, int image_size,
          const std::map<std::string, ReplicaFactory> *clean_factories)
{
    TenantOutcome outcome;
    outcome.tenant = tenant;

    ServingClient client;
    if (!client.connect("127.0.0.1", port)) {
        outcome.untyped = requests;
        return outcome;
    }

    // Per-tenant images (deterministic, distinct across tenants).
    const uint64_t data_seed =
        7 + static_cast<uint64_t>(std::hash<std::string>{}(tenant) % 1000);
    SyntheticDigits images(std::min(64, requests), image_size, data_seed);

    // Clean-reference predictions for the integrity cross-check: a
    // fault-free chip programmed from the same trained prototype (same
    // chip seed the server's worker 0 uses), run over this tenant's
    // image stream. ANN evaluation is deterministic, so any Ok reply
    // whose prediction differs from this reference was corrupted.
    std::map<std::string, std::vector<int>> reference;
    if (clean_factories != nullptr) {
        for (const auto &entry : *clean_factories) {
            std::unique_ptr<ChipReplica> replica = entry.second(0);
            std::vector<int> predicted;
            for (int i = 0; i < images.size(); ++i) {
                InferenceRequest req;
                req.id = static_cast<uint64_t>(i);
                req.image = images.image(i);
                predicted.push_back(replica->run(req).predictedClass);
            }
            reference[entry.first] = std::move(predicted);
        }
    }

    std::vector<std::future<WireResponse>> futures;
    std::vector<std::chrono::steady_clock::time_point> sent_at;
    futures.reserve(static_cast<size_t>(requests));
    const auto interval = std::chrono::duration<double>(1.0 / rate);
    const auto start = std::chrono::steady_clock::now();

    for (int i = 0; i < requests; ++i) {
        // Open-loop: fire at the scheduled instant even if earlier
        // requests are still pending.
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(interval * i));

        const std::string &id =
            models[static_cast<size_t>(i / run_length) % models.size()];
        ServableModelSpec spec;
        parseServableId(id, spec);
        ServeOptions options;
        options.timesteps = timesteps;

        sent_at.push_back(std::chrono::steady_clock::now());
        WireMode mode;
        parseWireMode(spec.mode, mode);
        futures.push_back(client.inferAsync(
            tenant, spec.family, mode,
            images.image(i % images.size()), options));
        ++outcome.sent;
    }

    for (size_t i = 0; i < futures.size(); ++i) {
        const WireResponse reply = futures[i].get();
        switch (reply.status) {
        case WireStatus::Ok: {
            ++outcome.ok;
            outcome.latenciesMs.push_back(
                1e3 *
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - sent_at[i])
                    .count());
            outcome.checked += reply.integrityChecked() ? 1 : 0;
            outcome.flagged += reply.integrityViolation() ? 1 : 0;
            outcome.reExecuted += reply.integrityReExecuted() ? 1 : 0;
            const std::string &model_id =
                models[(i / static_cast<size_t>(run_length)) %
                       models.size()];
            const auto ref = reference.find(model_id);
            if (ref != reference.end() &&
                reply.predictedClass !=
                    ref->second[i % ref->second.size()]) {
                ++outcome.corrupt;
                if (!reply.integrityViolation() &&
                    !reply.integrityReExecuted())
                    ++outcome.corruptUnflagged;
            }
            break;
        }
        case WireStatus::QuotaExceeded: ++outcome.quotaShed; break;
        case WireStatus::Shed: ++outcome.engineShed; break;
        case WireStatus::Timeout: ++outcome.timeouts; break;
        case WireStatus::ConnectionLost:
        case WireStatus::SendFailed: ++outcome.untyped; break;
        default: ++outcome.otherTyped; break;
        }
    }
    client.close();
    return outcome;
}

} // namespace

int
main(int argc, char **argv)
{
    int tenants = 2;
    int requests = 48;
    int resident = 2;
    int run_length = 8;
    int timesteps = 10;
    double rate = 150.0;
    double quota_rps = 0.0;
    double quota_burst = 8.0;
    long long require_swaps = 0;
    double slo_ms = 0.0;
    bool admin = false;
    int admin_port = 0;
    int admin_wait_sec = 0;
    bool abft = false;
    double fault_rate = 0.0;
    std::string models_csv = "mlp3/ann,mlp3/snn,lenet5/ann";

    for (int i = 1; i < argc; ++i) {
        auto intArg = [&](const char *flag, int &out) {
            if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
                out = std::atoi(argv[++i]);
                return true;
            }
            return false;
        };
        if (intArg("--tenants", tenants) ||
            intArg("--requests", requests) ||
            intArg("--resident", resident) ||
            intArg("--run-length", run_length) ||
            intArg("--timesteps", timesteps)) {
            continue;
        } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
            rate = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--quota-rps") == 0 &&
                   i + 1 < argc) {
            quota_rps = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--quota-burst") == 0 &&
                   i + 1 < argc) {
            quota_burst = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--require-swaps") == 0 &&
                   i + 1 < argc) {
            require_swaps = std::atoll(argv[++i]);
        } else if (std::strcmp(argv[i], "--slo-ms") == 0 && i + 1 < argc) {
            slo_ms = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--admin-port") == 0 &&
                   i + 1 < argc) {
            admin = true;
            admin_port = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--admin-wait-sec") == 0 &&
                   i + 1 < argc) {
            admin_wait_sec = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--models") == 0 && i + 1 < argc) {
            models_csv = argv[++i];
        } else if (std::strcmp(argv[i], "--abft") == 0) {
            abft = true;
        } else if (std::strcmp(argv[i], "--fault-rate") == 0 &&
                   i + 1 < argc) {
            fault_rate = std::atof(argv[++i]);
        } else {
            std::cerr
                << "usage: " << argv[0]
                << " [--tenants N] [--requests N] [--models a,b,c]"
                   " [--resident K] [--run-length N] [--rate R]"
                   " [--timesteps T] [--quota-rps R] [--quota-burst B]"
                   " [--require-swaps N] [--slo-ms X]"
                   " [--admin-port P]"
                   " [--admin-wait-sec S] [--abft] [--fault-rate R]\n";
            return 2;
        }
    }

    const std::vector<std::string> model_ids = splitCsv(models_csv);
    if (model_ids.empty() || tenants < 1 || requests < 1 ||
        run_length < 1 || rate <= 0.0) {
        std::cerr << "bad arguments\n";
        return 2;
    }

    std::cout << "== NEBULA multi-tenant serving loadgen ==\n\n";

    // 1. Catalog: quick-training specs, shared trained prototypes.
    RegistryConfig reg_cfg;
    int image_size = 0;
    for (const std::string &id : model_ids) {
        ServableModelSpec spec;
        if (!parseServableId(id, spec)) {
            std::cerr << "unknown servable id '" << id << "'\n";
            return 2;
        }
        spec.trainImages = 400;
        spec.epochs = spec.family == "lenet5" ? 2 : 3;
        reg_cfg.catalog.push_back(spec);
        image_size = spec.imageSize;
    }
    reg_cfg.residentCapacity = static_cast<size_t>(std::max(1, resident));
    reg_cfg.workersPerModel = 1;
    reg_cfg.engine.queueCapacity = 128;
    reg_cfg.engine.defaultTimesteps = timesteps;
    reg_cfg.abft = abft;
    if (fault_rate > 0.0) {
        // Program every chip servable under a stuck-at map whose walls
        // are all hard: write-verify pulse escalation cannot free them,
        // so the corruption survives programming and the checksum
        // columns (when --abft) must catch it on the read path.
        reg_cfg.reliability.faults = std::make_shared<StuckAtFaultModel>(
            fault_rate, /*high_fraction=*/0.5, /*hard_fraction=*/1.0);
        reg_cfg.reliability.faultSeed = 4242;
    }

    // Clean-reference factories for the integrity cross-check: one
    // fault-free, ABFT-off chip per ANN servable (same trained
    // prototype via the shared loader cache). Each tenant runs its own
    // image stream through these to learn the uncorrupted predictions.
    std::map<std::string, ReplicaFactory> clean_factories;
    if (fault_rate > 0.0) {
        auto &loader = ServableLoader::global();
        for (const ServableModelSpec &spec : reg_cfg.catalog)
            if (spec.mode == "ann")
                clean_factories[spec.id()] = loader.makeFactory(spec);
    }

    std::cout << "catalog: " << model_ids.size() << " models, "
              << reg_cfg.residentCapacity
              << " resident slots (training prototypes...)\n";
    auto registry = std::make_shared<ModelRegistry>(reg_cfg);

    // 2. Server on an ephemeral loopback port.
    ServerConfig srv_cfg;
    srv_cfg.port = 0;
    if (quota_rps > 0.0) {
        // tenant0 is the quota-capped tenant; the rest stay unlimited.
        srv_cfg.tenantQuotas["tenant0"] =
            TenantQuota{quota_rps, quota_burst};
    }
    if (slo_ms > 0.0)
        srv_cfg.slo.targetMs = slo_ms;
    if (admin) {
        srv_cfg.adminEnabled = true;
        srv_cfg.adminPort = static_cast<uint16_t>(admin_port);
    }
    ServingServer server(srv_cfg, registry);
    server.start();
    std::cout << "server up on 127.0.0.1:" << server.port() << "\n";
    if (admin)
        std::cout << "admin endpoint on 127.0.0.1:" << server.adminPort()
                  << " (/metrics /statusz /healthz)\n";
    std::cout << "\n";

    // 3. Tenant threads, open-loop.
    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    std::vector<TenantOutcome> outcomes(static_cast<size_t>(tenants));
    for (int t = 0; t < tenants; ++t) {
        threads.emplace_back([&, t] {
            outcomes[static_cast<size_t>(t)] = runTenant(
                "tenant" + std::to_string(t), server.port(), model_ids,
                requests, run_length, rate, timesteps, image_size,
                clean_factories.empty() ? nullptr : &clean_factories);
        });
    }
    for (auto &thread : threads)
        thread.join();
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    // 4. Scoreboard.
    Table table("Per-tenant outcomes (open-loop @ " +
                    formatDouble(rate, 0) + " req/s each)",
                {"tenant", "sent", "ok", "quota shed", "engine shed",
                 "timeout", "other", "untyped", "p50 ms", "p95 ms",
                 "p99 ms"});
    long long total_untyped = 0;
    long long total_ok = 0;
    for (const TenantOutcome &o : outcomes) {
        total_untyped += o.untyped;
        total_ok += o.ok;
        table.row()
            .add(o.tenant)
            .add(o.sent)
            .add(o.ok)
            .add(o.quotaShed)
            .add(o.engineShed)
            .add(o.timeouts)
            .add(o.otherTyped)
            .add(o.untyped)
            .add(o.percentile(0.50), 2)
            .add(o.percentile(0.95), 2)
            .add(o.percentile(0.99), 2);
    }
    table.print(std::cout);

    // Integrity scoreboard (when ABFT or fault injection is on): the
    // wire-level verdict counts plus the clean-reference cross-check.
    long long total_corrupt_unflagged = 0;
    if (abft || fault_rate > 0.0) {
        Table integrity_table(
            "Integrity (ABFT " + std::string(abft ? "on" : "off") +
                ", stuck-at fault rate " + formatDouble(fault_rate, 3) +
                ")",
            {"tenant", "checked", "flagged", "re-executed", "corrupt",
             "corrupt+unflagged"});
        for (const TenantOutcome &o : outcomes) {
            total_corrupt_unflagged += o.corruptUnflagged;
            integrity_table.row()
                .add(o.tenant)
                .add(o.checked)
                .add(o.flagged)
                .add(o.reExecuted)
                .add(o.corrupt)
                .add(o.corruptUnflagged);
        }
        std::cout << "\n";
        integrity_table.print(std::cout);
    }

    const ProgramReport swap_cost = registry->totalSwapCost();
    std::cout << "\nweight swaps: " << registry->swapIns()
              << " swap-ins, " << registry->evictions() << " evictions ("
              << registry->residentCount() << "/"
              << registry->residentCapacity() << " resident at end)\n"
              << "swap cost:    " << swap_cost.pulses
              << " program pulses, " << swap_cost.programEnergy
              << " J write-verify energy, " << swap_cost.pulsesPerCell()
              << " pulses/cell\n"
              << "throughput:   "
              << static_cast<double>(total_ok) / wall_seconds
              << " ok replies/sec across all tenants\n";

    // 5. Energy attribution: Joules the chip model spent per tenant,
    //    billed by the server on every Ok response.
    auto &global_metrics = obs::MetricsRegistry::global();
    Table energy_table("Per-tenant energy attribution (chip model)",
                       {"tenant", "inferences", "energy (J)",
                        "J/inference"});
    for (const TenantOutcome &o : outcomes) {
        const double inferences = global_metrics.counterValue(
            "telemetry.tenant.inferences", {{"tenant", o.tenant}});
        const double joules = global_metrics.counterValue(
            "telemetry.tenant.energy_j", {{"tenant", o.tenant}});
        energy_table.row()
            .add(o.tenant)
            .add(static_cast<long long>(inferences))
            .add(joules, 9)
            .add(inferences > 0 ? joules / inferences : 0.0, 12);
    }
    std::cout << "\n";
    energy_table.print(std::cout);

    // 6. SLO scoreboard (when a target was set): rolling per-cell
    //    quantiles and the error-budget burn rate.
    bool budget_exhausted = false;
    if (slo_ms > 0.0) {
        Table slo_table("Rolling SLO (target " + formatDouble(slo_ms, 1) +
                            " ms, objective " +
                            formatDouble(100.0 * srv_cfg.slo.objective, 1) +
                            "%, window " +
                            formatDouble(srv_cfg.slo.windowSeconds, 0) +
                            " s)",
                        {"tenant", "model", "p50 ms", "p95 ms", "p99 ms",
                         "good", "bad", "burn rate"});
        for (const obs::SloSnapshot &cell : server.slo().snapshotAll()) {
            budget_exhausted |= cell.budgetExhausted();
            slo_table.row()
                .add(cell.tenant)
                .add(cell.model)
                .add(cell.p50Ms, 2)
                .add(cell.p95Ms, 2)
                .add(cell.p99Ms, 2)
                .add(static_cast<long long>(cell.good))
                .add(static_cast<long long>(cell.bad))
                .add(cell.burnRate, 3);
        }
        std::cout << "\n";
        slo_table.print(std::cout);
    }

    if (admin && admin_wait_sec > 0) {
        std::cout << "\nholding admin endpoint on 127.0.0.1:"
                  << server.adminPort() << " for " << admin_wait_sec
                  << " s...\n"
                  << std::flush;
        std::this_thread::sleep_for(std::chrono::seconds(admin_wait_sec));
    }

    const uint64_t swap_ins = registry->swapIns();
    server.stop();
    registry->shutdown();

    if (budget_exhausted) {
        std::cerr << "\nFAIL: at least one (tenant, model) error budget "
                     "is exhausted (burn rate >= 1)\n";
        return 1;
    }
    if (total_untyped > 0) {
        std::cerr << "\nFAIL: " << total_untyped
                  << " request(s) ended without a typed wire outcome\n";
        return 1;
    }
    if (swap_ins < static_cast<uint64_t>(require_swaps)) {
        std::cerr << "\nFAIL: " << swap_ins << " swap-ins < required "
                  << require_swaps << "\n";
        return 1;
    }
    if (total_corrupt_unflagged > 0) {
        std::cerr << "\nFAIL: " << total_corrupt_unflagged
                  << " response(s) corrupt vs the clean reference and "
                     "not flagged by ABFT (silent corruption)\n";
        return 1;
    }
    std::cout << "\nRESULT ok: every request resolved to a typed wire "
                 "outcome\n";
    return 0;
}
