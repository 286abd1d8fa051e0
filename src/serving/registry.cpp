#include "serving/registry.hpp"

#include <algorithm>
#include <chrono>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nebula {
namespace serving {

ModelInstance::ModelInstance(ServableModelSpec spec,
                             EngineConfig engine_config,
                             const ReplicaFactory &factory)
    : spec_(std::move(spec)), engine_(engine_config, factory)
{
    inputShape_ = {1, spec_.imageSize, spec_.imageSize};
    // Replicas were just programmed and no request has run yet, so the
    // quiesce inside withReplicas is free; the merged report is the
    // write-verify cost of bringing this model resident.
    engine_.withReplicas([this](ChipReplica &replica) {
        if (const ProgramReport *report = replica.programReport())
            swapCost_.merge(*report);
    });
}

ModelRegistry::ModelRegistry(RegistryConfig config)
    : config_(std::move(config))
{
    NEBULA_ASSERT(config_.residentCapacity >= 1,
                  "registry needs residentCapacity >= 1");
    for (const ServableModelSpec &spec : config_.catalog) {
        const bool inserted =
            catalog_.emplace(spec.id(), spec).second;
        NEBULA_ASSERT(inserted, "duplicate servable id ", spec.id());
    }
}

ModelRegistry::~ModelRegistry()
{
    shutdown();
}

bool
ModelRegistry::has(const std::string &id) const
{
    return catalog_.count(id) > 0;
}

std::vector<std::string>
ModelRegistry::catalogIds() const
{
    std::vector<std::string> ids;
    ids.reserve(catalog_.size());
    for (const auto &[id, spec] : catalog_)
        ids.push_back(id);
    return ids;
}

std::vector<std::string>
ModelRegistry::residentIds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {lru_.begin(), lru_.end()};
}

size_t
ModelRegistry::residentCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return resident_.size();
}

uint64_t
ModelRegistry::swapIns() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return swapIns_;
}

uint64_t
ModelRegistry::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

ProgramReport
ModelRegistry::totalSwapCost() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return totalSwapCost_;
}

void
ModelRegistry::evictOneLocked()
{
    NEBULA_ASSERT(!lru_.empty(), "evict on an empty registry");
    // Prefer the least-recently-used instance nobody outside the
    // registry still references; fall back to the strict LRU victim
    // (its engine shutdown quiesces, and late submitters re-acquire).
    auto victim = std::prev(lru_.end());
    for (auto it = std::prev(lru_.end());; --it) {
        if (resident_.at(*it).use_count() == 1) {
            victim = it;
            break;
        }
        if (it == lru_.begin())
            break;
    }

    const std::string id = *victim;
    std::shared_ptr<ModelInstance> instance = resident_.at(id);
    resident_.erase(id);
    lru_.erase(victim);

    obs::TraceSpan span("serving", "model.evict");
    // Quiesce-then-teardown: shutdown waits for in-flight requests on
    // this pool, so the swap never races an evaluation.
    instance->engine().shutdown();
    ++evictions_;
    obs::MetricsRegistry::global().counter("serving.swap.evictions").inc();
    obs::MetricsRegistry::global()
        .gauge("serving.models.resident")
        .set(static_cast<double>(resident_.size()));
    NEBULA_DEBUG("serving", "evicted model ", id, " (",
                 resident_.size(), " resident)");
}

std::shared_ptr<ModelInstance>
ModelRegistry::acquire(const std::string &id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_)
        return nullptr;
    const auto spec_it = catalog_.find(id);
    if (spec_it == catalog_.end())
        return nullptr;

    const auto resident_it = resident_.find(id);
    if (resident_it != resident_.end()) {
        lru_.remove(id);
        lru_.push_front(id);
        lastUsed_[id] = std::chrono::steady_clock::now();
        return resident_it->second;
    }

    // Swap-in: make room, then program the model onto a fresh pool.
    while (resident_.size() >= config_.residentCapacity)
        evictOneLocked();

    obs::TraceSpan span("serving", "model.swap_in");
    const auto swap_start = std::chrono::steady_clock::now();

    EngineConfig engine_config = config_.engine;
    engine_config.numWorkers = config_.workersPerModel;
    NebulaConfig chip_config;
    chip_config.abft = config_.abft;
    if (config_.abft && !engine_config.abft.fallback)
        engine_config.abft.fallback =
            ServableLoader::global().makeFallbackFactory(spec_it->second);
    ReplicaFactory factory =
        ServableLoader::global().makeFactory(spec_it->second,
                                             config_.reliability,
                                             chip_config);
    auto instance = std::make_shared<ModelInstance>(
        spec_it->second, engine_config, factory);

    resident_.emplace(id, instance);
    lru_.push_front(id);
    lastUsed_[id] = std::chrono::steady_clock::now();
    ++swapIns_;
    totalSwapCost_.merge(instance->swapCost());

    const double swap_ms =
        1e3 * std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - swap_start)
                  .count();
    span.arg("swap_ms", swap_ms);
    auto &metrics = obs::MetricsRegistry::global();
    metrics.counter("serving.swap.count").inc();
    metrics.counter("serving.swap.pulses")
        .inc(static_cast<double>(instance->swapCost().pulses));
    metrics.counter("serving.swap.energy_j")
        .inc(instance->swapCost().programEnergy);
    // Half-millisecond buckets: swap-ins take 1-20 ms, and wider buckets
    // put them all in bucket 0, where p50 reads as the slowest swap.
    // Slower swaps clamp into the top bucket (max stays exact).
    metrics.observe("serving.swap.ms", swap_ms, 0.0, 100.0, 200);
    metrics.gauge("serving.models.resident")
        .set(static_cast<double>(resident_.size()));
    NEBULA_DEBUG("serving", "swapped in model ", id, " in ", swap_ms,
                 " ms (", instance->swapCost().pulses, " pulses, ",
                 instance->swapCost().programEnergy, " J)");
    return instance;
}

std::vector<ModelRegistry::ModelStatus>
ModelRegistry::status() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto now = std::chrono::steady_clock::now();
    std::vector<ModelStatus> out;
    out.reserve(catalog_.size());
    for (const auto &[id, spec] : catalog_) {
        ModelStatus status;
        status.id = id;
        const auto resident_it = resident_.find(id);
        if (resident_it != resident_.end()) {
            status.resident = true;
            status.instance = resident_it->second;
            status.swapCost = resident_it->second->swapCost();
        }
        const auto used_it = lastUsed_.find(id);
        if (used_it != lastUsed_.end())
            status.lruAgeSeconds =
                std::chrono::duration<double>(now - used_it->second).count();
        out.push_back(std::move(status));
    }
    return out;
}

void
ModelRegistry::shutdown()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_)
        return;
    shutdown_ = true;
    for (auto &[id, instance] : resident_)
        instance->engine().shutdown();
    resident_.clear();
    lru_.clear();
    obs::MetricsRegistry::global().gauge("serving.models.resident").set(0.0);
}

} // namespace serving
} // namespace nebula
