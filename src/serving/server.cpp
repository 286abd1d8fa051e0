#include "serving/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliability/health.hpp"
#include "serving/socket_io.hpp"

namespace nebula {
namespace serving {

namespace {

WireStatus
fromRuntimeError(RuntimeErrorKind kind)
{
    switch (kind) {
    case RuntimeErrorKind::None: return WireStatus::Ok;
    case RuntimeErrorKind::Timeout: return WireStatus::Timeout;
    case RuntimeErrorKind::Shed: return WireStatus::Shed;
    case RuntimeErrorKind::EngineStopped: return WireStatus::EngineStopped;
    case RuntimeErrorKind::ReplicaFault: return WireStatus::ReplicaFault;
    case RuntimeErrorKind::Cancelled: return WireStatus::Cancelled;
    }
    return WireStatus::Internal;
}

constexpr double kLatencyHistLoMs = 0.0;
constexpr double kLatencyHistHiMs = 500.0;
constexpr int kLatencyHistBuckets = 500;

/** telemetry.energy_j{component} label values, in EnergyBreakdown order. */
constexpr std::array<const char *, 5> kEnergyComponents = {
    "crossbar", "driver", "adc", "neuron", "noc"};

/**
 * A writer sends its buffered responses at the latest once this many
 * bytes are waiting, even while later ones are settled, so a client
 * that pipelines without bound still sees replies flow.
 */
constexpr size_t kFlushBytes = 64 << 10;

/** Engine outcomes (Ok .. Cancelled) are the low WireStatus values. */
constexpr size_t kEngineStatuses =
    static_cast<size_t>(WireStatus::Cancelled) + 1;

/**
 * The counter in @p slot, resolved by name on first use: the series
 * is created when it first counts, and @p labels is only built then.
 */
template <typename MakeLabels>
obs::Counter &
lazyCounter(obs::Counter *&slot, const char *name, MakeLabels labels)
{
    if (!slot)
        slot = &obs::MetricsRegistry::global().counter(name, labels());
    return *slot;
}

} // namespace

/** One live client connection: reader + writer + response pipeline. */
struct ServingServer::Connection
{
    /**
     * Metric handles of one (tenant, catalog id) cell, each resolved on
     * its first sample. The reader thread creates cells and owns
     * `requests`; the writer owns every other handle of the cell its
     * Pending points at. Map nodes never move, so that pointer stays
     * valid while the reader adds cells.
     */
    struct Cell
    {
        std::string tenant;
        std::string model; //!< catalog id, for SLO / energy attribution
        obs::Counter *requests = nullptr;
        std::array<obs::Counter *, kEnergyComponents.size()> energy{};
        obs::Counter *inferences = nullptr;
        obs::Counter *tenantEnergy = nullptr;
        obs::Counter *tenantInferences = nullptr;
        std::array<obs::Counter *, kEngineStatuses> responses{};
        Histogram *latency = nullptr;
    };

    /** One slot of the in-order response pipeline. */
    struct Pending
    {
        WireResponse ready;  //!< used when !future.valid()
        std::future<InferenceResult> future;
        std::shared_ptr<ModelInstance> instance;
        Cell *cell = nullptr; //!< set exactly when future.valid()
        std::chrono::steady_clock::time_point received;
        bool closeAfter = false;
    };

    /** The cell of (@p tenant, @p model); reader thread only. */
    Cell &cellFor(const std::string &tenant, const std::string &model)
    {
        auto &models = cells[tenant];
        auto it = models.find(model);
        if (it == models.end())
            it = models.emplace(model, Cell{tenant, model}).first;
        return it->second;
    }

    int fd = -1;
    uint64_t id = 0;
    std::thread reader;
    std::thread writer;

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> pipeline;
    bool readerDone = false;

    /** tenant -> catalog id -> handles (see Cell). */
    std::map<std::string, std::map<std::string, Cell, std::less<>>,
             std::less<>>
        cells;

    std::atomic<bool> dead{false};     //!< socket broken: stop writing
    std::atomic<bool> readerExited{false};
    std::atomic<bool> writerExited{false};

    /**
     * True when the pipeline head can be answered without blocking: a
     * ready response or a settled future. Caller holds `mutex`.
     */
    bool headSettled() const
    {
        if (pipeline.empty())
            return false;
        const Pending &head = pipeline.front();
        return !head.future.valid() ||
               head.future.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready;
    }

    bool finished() const
    {
        return readerExited.load() && writerExited.load();
    }
};

ServingServer::ServingServer(ServerConfig config,
                             std::shared_ptr<ModelRegistry> registry)
    : config_(std::move(config)), registry_(std::move(registry)),
      tenants_(config_.defaultQuota, config_.tenantQuotas),
      slo_(config_.slo)
{
    NEBULA_ASSERT(registry_, "server needs a registry");
    // Refuse configs that cannot serve: a zero pipeline parks every
    // connection's first frame in dispatch forever, and no connection,
    // backlog or body room admits no request.
    if (config_.pipelineDepth == 0)
        throw std::invalid_argument(
            "ServerConfig: pipelineDepth must be >= 1");
    if (config_.maxConnections < 1)
        throw std::invalid_argument(
            "ServerConfig: maxConnections must be >= 1");
    if (config_.backlog < 1)
        throw std::invalid_argument("ServerConfig: backlog must be >= 1");
    if (config_.maxBodyBytes == 0)
        throw std::invalid_argument(
            "ServerConfig: maxBodyBytes must be >= 1");
}

ServingServer::~ServingServer()
{
    stop();
}

void
ServingServer::start()
{
    NEBULA_ASSERT(listenFd_ < 0, "server already started");

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("serving: socket() failed");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("serving: bad host " + config_.host);
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, config_.backlog) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("serving: bind/listen failed on " +
                                 config_.host + ":" +
                                 std::to_string(config_.port));
    }

    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    running_.store(true);
    acceptThread_ = std::thread([this] { acceptLoop(); });

    if (config_.adminEnabled) {
        AdminConfig admin_config;
        admin_config.port = config_.adminPort;
        admin_config.host = config_.host;
        admin_ = std::make_unique<AdminServer>(admin_config);
        admin_->handle("/metrics", [this] {
            // Fold the rolling SLO state into the registry right before
            // rendering, so a scrape always sees fresh slo.* gauges.
            auto &registry = obs::MetricsRegistry::global();
            slo_.exportTo(registry);
            AdminResponse response;
            response.contentType =
                "text/plain; version=0.0.4; charset=utf-8";
            response.body = registry.toPrometheus();
            return response;
        });
        admin_->handle("/statusz", [this] {
            AdminResponse response;
            response.contentType = "application/json";
            response.body = statuszJson();
            return response;
        });
        admin_->handle("/healthz", [this] {
            AdminResponse response;
            if (running_.load()) {
                response.body = "ok\n";
            } else {
                response.status = 503;
                response.body = "stopping\n";
            }
            return response;
        });
        admin_->start();
        NEBULA_DEBUG("serving", "admin endpoint on ", config_.host, ":",
                     admin_->port());
    }

    NEBULA_DEBUG("serving", "server listening on ", config_.host, ":",
                 port_);
}

void
ServingServer::acceptLoop()
{
    obs::setThreadName("serving.accept");
    while (running_.load()) {
        sockaddr_in peer{};
        socklen_t len = sizeof(peer);
        const int fd = ::accept(
            listenFd_, reinterpret_cast<sockaddr *>(&peer), &len);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listener closed by stop()
        }
        reapFinished();

        std::lock_guard<std::mutex> lock(connectionsMutex_);
        if (!running_.load() ||
            connections_.size() >=
                static_cast<size_t>(config_.maxConnections)) {
            ::close(fd);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conn->id = accepted_.fetch_add(1);
        Connection &ref = *conn;
        conn->reader = std::thread([this, &ref] { readerLoop(ref); });
        conn->writer = std::thread([this, &ref] { writerLoop(ref); });
        connections_.push_back(std::move(conn));
        obs::MetricsRegistry::global().counter("serving.connections").inc();
    }
}

void
ServingServer::enqueueReady(Connection &conn, WireResponse response,
                            bool close_after)
{
    std::unique_lock<std::mutex> lock(conn.mutex);
    conn.cv.wait(lock, [&] {
        return conn.pipeline.size() < config_.pipelineDepth;
    });
    Connection::Pending pending;
    pending.ready = std::move(response);
    pending.closeAfter = close_after;
    pending.received = std::chrono::steady_clock::now();
    conn.pipeline.push_back(std::move(pending));
    lock.unlock();
    conn.cv.notify_all();
}

void
ServingServer::dispatch(Connection &conn, WireRequest request)
{
    obs::TraceSpan span("serving", "request");
    span.arg("corr_id", static_cast<double>(request.corrId));
    // Cross-process flow: the client emitted the flow start under this
    // id; the step here and the one in the worker link submit ->
    // dispatch -> evaluate into one Perfetto track.
    obs::recordFlowStep("serving", "request.flow", request.traceId);
    auto &metrics = obs::MetricsRegistry::global();
    const auto received = std::chrono::steady_clock::now();
    const std::string catalog_id =
        request.model + "/" + toString(request.mode);

    WireResponse response;
    response.corrId = request.corrId;

    // Admission layer 1: the tenant's token bucket. A refusal here is
    // the typed quota shed -- the request never reaches the engine
    // queue, so greedy tenants cannot crowd out the others.
    if (!tenants_.admit(request.tenant)) {
        metrics
            .counter("serving.shed", {{"tenant", request.tenant},
                                      {"reason", "quota"}})
            .inc();
        slo_.record(request.tenant, catalog_id, 0.0,
                    /*server_error=*/false, /*client_error=*/true);
        response.status = WireStatus::QuotaExceeded;
        response.message = "tenant over admission quota";
        enqueueReady(conn, std::move(response));
        return;
    }

    std::shared_ptr<ModelInstance> instance = registry_->acquire(catalog_id);
    if (!instance) {
        slo_.record(request.tenant, catalog_id, 0.0,
                    /*server_error=*/false, /*client_error=*/true);
        response.status = WireStatus::UnknownModel;
        response.message = "no servable '" + catalog_id + "' in catalog";
        enqueueReady(conn, std::move(response));
        return;
    }

    if (request.image.shape() != instance->inputShape()) {
        slo_.record(request.tenant, catalog_id, 0.0,
                    /*server_error=*/false, /*client_error=*/true);
        response.status = WireStatus::BadRequest;
        response.message = "image shape does not match model input";
        enqueueReady(conn, std::move(response));
        return;
    }

    Connection::Cell &cell = conn.cellFor(request.tenant, catalog_id);
    lazyCounter(cell.requests, "serving.requests", [&] {
        return obs::Labels{{"tenant", cell.tenant}};
    }).inc();

    // Admission layer 2: the engine (queue-full / deadline shedding,
    // typed outcomes inside the future). An eviction racing this
    // submit surfaces as EngineStoppedError: re-acquire (the registry
    // swaps the model back in) and retry.
    std::future<InferenceResult> future;
    bool submitted = false;
    for (int attempt = 0; attempt < 3 && !submitted; ++attempt) {
        InferenceRequest engine_request;
        engine_request.image = request.image;
        engine_request.timesteps = static_cast<int>(request.timesteps);
        engine_request.seed = request.seed;
        engine_request.traceId = request.traceId;
        engine_request.deadlineNs = request.deadlineNs != 0
                                        ? request.deadlineNs
                                        : config_.defaultDeadlineNs;
        try {
            future = instance->engine().submit(std::move(engine_request));
            submitted = true;
        } catch (const EngineStoppedError &) {
            instance = registry_->acquire(catalog_id);
            if (!instance)
                break;
        }
    }
    if (!submitted) {
        slo_.record(request.tenant, catalog_id, 0.0,
                    /*server_error=*/true);
        response.status = WireStatus::EngineStopped;
        response.message = "model engine stopped during submit";
        enqueueReady(conn, std::move(response));
        return;
    }

    std::unique_lock<std::mutex> lock(conn.mutex);
    conn.cv.wait(lock, [&] {
        return conn.pipeline.size() < config_.pipelineDepth;
    });
    Connection::Pending pending;
    pending.ready.corrId = request.corrId;
    pending.future = std::move(future);
    pending.instance = std::move(instance);
    pending.cell = &cell;
    pending.received = received;
    conn.pipeline.push_back(std::move(pending));
    lock.unlock();
    conn.cv.notify_all();
}

void
ServingServer::readerLoop(Connection &conn)
{
    obs::setThreadName("serving.conn" + std::to_string(conn.id) + ".r");
    StreamBuffer in;
    Frame frame;
    for (;;) {
        const WireStatus header_status = readFrame(
            conn.fd, in, config_.maxBodyBytes, FrameType::Request, frame);
        if (header_status == WireStatus::ConnectionLost)
            break; // clean EOF or mid-frame disconnect: just stop
        if (header_status != WireStatus::Ok) {
            // The stream cannot be resynchronized after a bad header:
            // answer with the typed error, then close.
            WireResponse err;
            err.status = header_status;
            err.message = "rejected frame header";
            obs::MetricsRegistry::global()
                .counter("serving.bad_frames")
                .inc();
            enqueueReady(conn, std::move(err), /*close_after=*/true);
            break;
        }

        WireRequest request;
        const WireStatus decode_status =
            decodeRequestBody(frame.body, frame.header.bodyLen, request);
        in.consume(frame.bytes);
        request.traceId = frame.header.traceId;
        if (decode_status != WireStatus::Ok) {
            WireResponse err;
            err.corrId = request.corrId; // best-effort correlation
            err.status = decode_status;
            err.message = "rejected request body";
            obs::MetricsRegistry::global()
                .counter("serving.bad_frames")
                .inc();
            // A malformed *frame* poisons the framing; a semantically
            // bad (but well-framed) request does not.
            const bool fatal = decode_status != WireStatus::BadRequest;
            enqueueReady(conn, std::move(err), fatal);
            if (fatal)
                break;
            continue;
        }

        dispatch(conn, std::move(request));
    }

    {
        std::lock_guard<std::mutex> lock(conn.mutex);
        conn.readerDone = true;
    }
    conn.cv.notify_all();
    conn.readerExited.store(true);
}

void
ServingServer::writerLoop(Connection &conn)
{
    obs::setThreadName("serving.conn" + std::to_string(conn.id) + ".w");
    auto &metrics = obs::MetricsRegistry::global();
    // Encoded responses not sent yet, in pipeline order. They leave in
    // one send as soon as the pipeline head is not settled, so no
    // response waits for a later one; also before a close and once
    // kFlushBytes pile up.
    std::vector<uint8_t> out;
    auto flush = [&] {
        if (!out.empty() && !conn.dead.load() &&
            !writeFully(conn.fd, out.data(), out.size()))
            conn.dead.store(true);
        out.clear();
    };
    while (true) {
        std::unique_lock<std::mutex> lock(conn.mutex);
        if (!out.empty() && !conn.headSettled()) {
            lock.unlock();
            flush();
            lock.lock();
        }
        conn.cv.wait(lock, [&] {
            return !conn.pipeline.empty() || conn.readerDone;
        });
        if (conn.pipeline.empty())
            break; // readerDone and drained
        Connection::Pending pending = std::move(conn.pipeline.front());
        conn.pipeline.pop_front();
        lock.unlock();
        conn.cv.notify_all(); // free a pipeline slot for the reader

        WireResponse response = std::move(pending.ready);
        if (pending.future.valid()) {
            Connection::Cell &cell = *pending.cell;
            // The engine guarantees a typed terminal outcome -- this
            // get() never hangs on a broken promise.
            InferenceResult result = pending.future.get();
            response.status = fromRuntimeError(result.error);
            response.message = result.errorMessage;
            response.predictedClass = result.predictedClass;
            if (result.ok())
                response.logits = std::move(result.logits);
            // ABFT verdict onto the wire (v3 header flags). All three
            // flags zero keeps the response frame at v1 -- abft=off
            // traffic is byte-identical to the pre-integrity format.
            if (result.integrity.checked())
                response.integrity |= kIntegrityFlagChecked;
            if (!result.integrity.clean())
                response.integrity |= kIntegrityFlagViolation;
            if (result.integrity.reExecuted)
                response.integrity |= kIntegrityFlagReExecuted;
            if ((response.integrity &
                 (kIntegrityFlagViolation | kIntegrityFlagReExecuted)) != 0)
                metrics
                    .counter("serving.abft.flagged",
                             {{"tenant", cell.tenant}, {"model", cell.model}})
                    .inc();

            const double ms =
                1e3 * std::chrono::duration<double>(
                          std::chrono::steady_clock::now() -
                          pending.received)
                          .count();
            response.serverMs = ms;
            // Engine outcomes are all server-owned: anything but Ok
            // burns error budget (client-caused refusals never reach
            // the engine; dispatch() records those as excluded).
            slo_.record(cell.tenant, cell.model, ms,
                        /*server_error=*/response.status != WireStatus::Ok);
            if (result.ok()) {
                // Per-request energy attribution: bill the chip-model
                // Joules this evaluation consumed to the tenant that
                // asked for it, broken down by component. Functional
                // backends report zero (the series still exists, so a
                // reader can distinguish "no energy model" from "no
                // traffic").
                const std::array<double, kEnergyComponents.size()> joules =
                    {result.energy.crossbarJ, result.energy.driverJ,
                     result.energy.adcJ, result.energy.neuronJ,
                     result.energy.nocJ};
                for (size_t c = 0; c < joules.size(); ++c)
                    lazyCounter(cell.energy[c], "telemetry.energy_j", [&] {
                        return obs::Labels{{"tenant", cell.tenant},
                                           {"model", cell.model},
                                           {"component",
                                            kEnergyComponents[c]}};
                    }).inc(joules[c]);
                lazyCounter(cell.inferences, "telemetry.inferences", [&] {
                    return obs::Labels{{"tenant", cell.tenant},
                                       {"model", cell.model}};
                }).inc();
                lazyCounter(cell.tenantEnergy, "telemetry.tenant.energy_j",
                            [&] {
                                return obs::Labels{{"tenant", cell.tenant}};
                            })
                    .inc(result.energy.total());
                lazyCounter(cell.tenantInferences,
                            "telemetry.tenant.inferences", [&] {
                                return obs::Labels{{"tenant", cell.tenant}};
                            })
                    .inc();
            }
            if (!cell.latency)
                cell.latency = &metrics.histogram(
                    "serving.latency_ms", kLatencyHistLoMs, kLatencyHistHiMs,
                    kLatencyHistBuckets, {{"tenant", cell.tenant}});
            metrics.observe(*cell.latency, ms);
            const auto status = static_cast<size_t>(response.status);
            auto responses_labels = [&] {
                return obs::Labels{{"tenant", cell.tenant},
                                   {"status", toString(response.status)}};
            };
            if (status < kEngineStatuses)
                lazyCounter(cell.responses[status], "serving.responses",
                            responses_labels)
                    .inc();
            else
                metrics.counter("serving.responses", responses_labels())
                    .inc();
            if (response.status == WireStatus::Shed)
                metrics
                    .counter("serving.shed",
                             {{"tenant", cell.tenant}, {"reason", "engine"}})
                    .inc();
        }

        if (!conn.dead.load())
            appendResponseFrame(out, response);
        if (pending.closeAfter || out.size() >= kFlushBytes)
            flush();
        if (pending.closeAfter) {
            // Unblock the reader (it may be mid-recv on this fd).
            ::shutdown(conn.fd, SHUT_RDWR);
            conn.dead.store(true);
        }
    }
    conn.writerExited.store(true);
}

void
ServingServer::reapFinished()
{
    std::lock_guard<std::mutex> lock(connectionsMutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
        Connection &conn = **it;
        if (!conn.finished()) {
            ++it;
            continue;
        }
        conn.reader.join();
        conn.writer.join();
        ::close(conn.fd);
        it = connections_.erase(it);
    }
}

void
ServingServer::stop()
{
    if (!running_.exchange(false)) {
        // start() never ran (or stop() already did): nothing to join.
        if (listenFd_ >= 0) {
            ::close(listenFd_);
            listenFd_ = -1;
        }
        return;
    }

    // running_ is already false, so a late /healthz answers 503; take
    // the endpoint down before the data plane drains.
    if (admin_)
        admin_->stop();

    // Kill the listener first so no new connections arrive.
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    if (acceptThread_.joinable())
        acceptThread_.join();
    listenFd_ = -1;

    // Then unblock and drain every live connection.
    std::vector<std::unique_ptr<Connection>> doomed;
    {
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        doomed.swap(connections_);
    }
    for (auto &conn : doomed)
        ::shutdown(conn->fd, SHUT_RDWR);
    for (auto &conn : doomed) {
        conn->reader.join();
        conn->writer.join();
        ::close(conn->fd);
    }
    NEBULA_DEBUG("serving", "server stopped after ", accepted_.load(),
                 " connections");
}

std::string
ServingServer::statuszJson()
{
    std::string out;
    out.reserve(4096);
    out += "{\"server\":{";
    out += "\"running\":";
    out += running_.load() ? "true" : "false";
    out += ",\"port\":" + std::to_string(port_);
    out += ",\"adminPort\":" + std::to_string(adminPort());
    out += ",\"connectionsAccepted\":" + std::to_string(accepted_.load());
    out += "},\"registry\":{";
    out += "\"residentCapacity\":" +
           std::to_string(registry_->residentCapacity());
    out += ",\"residentCount\":" + std::to_string(registry_->residentCount());
    out += ",\"swapIns\":" + std::to_string(registry_->swapIns());
    out += ",\"evictions\":" + std::to_string(registry_->evictions());
    const ProgramReport total_swap = registry_->totalSwapCost();
    out += ",\"totalSwapPulses\":" + std::to_string(total_swap.pulses);
    out += ",\"totalSwapEnergyJ\":" + json::number(total_swap.programEnergy);
    out += "},\"models\":[";

    bool first = true;
    for (const ModelRegistry::ModelStatus &model : registry_->status()) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"id\":" + json::quoted(model.id);
        out += ",\"resident\":";
        out += model.resident ? "true" : "false";
        out += ",\"lruAgeSeconds\":" + json::number(model.lruAgeSeconds);
        out += ",\"swapPulses\":" + std::to_string(model.swapCost.pulses);
        out +=
            ",\"swapEnergyJ\":" + json::number(model.swapCost.programEnergy);
        if (model.instance) {
            InferenceEngine &engine = model.instance->engine();
            out += ",\"engine\":{";
            out += "\"queueDepth\":" + std::to_string(engine.queueDepth());
            out += ",\"inflight\":" + std::to_string(engine.inflight());
            out += ",\"submitted\":" + std::to_string(engine.submitted());
            out += ",\"completed\":" + std::to_string(engine.completed());
            out += ",\"shed\":" + std::to_string(engine.shedCount());
            out += ",\"workerRestarts\":" +
                   std::to_string(engine.workerRestarts());
            out += ",\"quarantined\":" +
                   std::to_string(engine.quarantinedCount());
            out += ",\"numWorkers\":" + std::to_string(engine.numWorkers());
            out += '}';
            if (const HealthMonitor *health = engine.health()) {
                out += ",\"health\":[";
                for (int slot = 0; slot < health->slotCount(); ++slot) {
                    if (slot > 0)
                        out += ',';
                    out += "{\"slot\":" + std::to_string(slot);
                    out += ",\"state\":" +
                           json::quoted(toString(health->health(slot)));
                    out += ",\"lastDeviation\":" +
                           json::number(health->lastDeviation(slot));
                    out += '}';
                }
                out += ']';
            }
        }
        out += '}';
    }
    out += "],\"tenants\":[";

    first = true;
    for (const TenantTable::BucketStatus &tenant : tenants_.snapshot()) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"tenant\":" + json::quoted(tenant.tenant);
        out += ",\"tokens\":" + json::number(tenant.tokens);
        out += ",\"ratePerSec\":" + json::number(tenant.quota.ratePerSec);
        out += ",\"burst\":" + json::number(tenant.quota.burst);
        out += '}';
    }
    out += "],\"slo\":[";

    first = true;
    for (const obs::SloSnapshot &cell : slo_.snapshotAll()) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"tenant\":" + json::quoted(cell.tenant);
        out += ",\"model\":" + json::quoted(cell.model);
        out += ",\"p50Ms\":" + json::number(cell.p50Ms);
        out += ",\"p95Ms\":" + json::number(cell.p95Ms);
        out += ",\"p99Ms\":" + json::number(cell.p99Ms);
        out += ",\"good\":" + json::number(cell.good);
        out += ",\"bad\":" + json::number(cell.bad);
        out += ",\"excluded\":" + json::number(cell.excluded);
        out += ",\"burnRate\":" + json::number(cell.burnRate);
        out += ",\"budgetExhausted\":";
        out += cell.budgetExhausted() ? "true" : "false";
        out += '}';
    }
    out += "]}";
    return out;
}

} // namespace serving
} // namespace nebula
