/**
 * @file
 * Socket front-end: a small TCP server speaking the length-prefixed
 * binary protocol of serving/protocol.hpp over a multi-tenant
 * ModelRegistry.
 *
 * Per connection the server runs a reader thread (frame in -> quota
 * check -> registry acquire -> InferenceEngine::submit) and a writer
 * thread draining a bounded pipeline of pending futures in request
 * order -- so a connection can pipeline many requests while responses
 * stay FIFO. Frames move in bursts (serving/socket_io.hpp): the reader
 * decodes every whole frame one recv delivered, and the writer sends
 * the responses it has settled in one send whenever the next pipeline
 * head is still running. Every outcome a client can observe is typed: engine
 * outcomes map 1:1 onto wire statuses, quota refusals are
 * QuotaExceeded, malformed input is BadFrame / UnsupportedVersion /
 * PayloadTooLarge (answered when the stream still permits, then the
 * connection closes -- the framing cannot be trusted afterwards).
 *
 * Observability: per-tenant serving.requests / serving.shed counters,
 * serving.latency_ms histograms (p50/p95/p99 via snapshot), per-request
 * telemetry.energy_j billing and serving-category trace spans land in
 * MetricsRegistry::global(). The request path resolves no metric by
 * name after a (tenant, model)'s first request on a connection: each
 * connection caches the handles of the series it bills per (tenant,
 * catalog id), resolving each one on its first sample so a series
 * still appears only when it first counts.
 */

#ifndef NEBULA_SERVING_SERVER_HPP
#define NEBULA_SERVING_SERVER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/slo.hpp"
#include "serving/admin.hpp"
#include "serving/protocol.hpp"
#include "serving/quota.hpp"
#include "serving/registry.hpp"

namespace nebula {
namespace serving {

/** Front-end knobs. */
struct ServerConfig
{
    /** Listen port; 0 binds an ephemeral port (read back via port()). */
    uint16_t port = 0;

    /** Loopback-only by default; set to "0.0.0.0" to expose. */
    std::string host = "127.0.0.1";

    int backlog = 16;

    /** Connections beyond this are accepted and immediately closed. */
    int maxConnections = 64;

    /** Frames with a larger length prefix get PayloadTooLarge. */
    size_t maxBodyBytes = 1 << 24;

    /** Per-connection pending-response pipeline depth (backpressure). */
    size_t pipelineDepth = 64;

    /** Deadline for requests that do not carry one (0: none). */
    uint64_t defaultDeadlineNs = 0;

    /** Admission quota for tenants without an explicit entry. */
    TenantQuota defaultQuota;

    /** Per-tenant quota overrides. */
    std::map<std::string, TenantQuota> tenantQuotas;

    /** Per-(tenant, model) rolling SLO objective and window shape. */
    obs::SloConfig slo;

    /**
     * Start the admin/telemetry HTTP endpoint (/metrics, /statusz,
     * /healthz) alongside the wire protocol listener.
     */
    bool adminEnabled = false;

    /** Admin listen port (0: ephemeral, read back via adminPort()). */
    uint16_t adminPort = 0;
};

/** The serving front-end; one instance per process/port. */
class ServingServer
{
  public:
    /**
     * Throws std::invalid_argument for a config that cannot serve:
     * pipelineDepth or maxBodyBytes of 0, maxConnections or backlog
     * below 1.
     */
    ServingServer(ServerConfig config,
                  std::shared_ptr<ModelRegistry> registry);

    /** stop()s if the caller has not. */
    ~ServingServer();

    ServingServer(const ServingServer &) = delete;
    ServingServer &operator=(const ServingServer &) = delete;

    /** Bind, listen, start accepting. Throws std::runtime_error. */
    void start();

    /** Close the listener and every connection; join all threads. */
    void stop();

    /** Bound port (valid after start()). */
    uint16_t port() const { return port_; }

    bool running() const { return running_.load(); }

    uint64_t connectionsAccepted() const { return accepted_.load(); }

    ModelRegistry &registry() { return *registry_; }

    /** Rolling per-(tenant, model) SLO state fed by the writer loops. */
    obs::SloTracker &slo() { return slo_; }

    /** Admin endpoint port (0 unless adminEnabled and started). */
    uint16_t adminPort() const { return admin_ ? admin_->port() : 0; }

    /**
     * The /statusz document: engine queue/inflight/worker state, health
     * slots, registry residency + LRU ages + swap cost, tenant token
     * balances and SLO snapshots. Exposed for tests; the admin handler
     * serves exactly this string.
     */
    std::string statuszJson();

  private:
    struct Connection;

    void acceptLoop();
    void readerLoop(Connection &conn);
    void writerLoop(Connection &conn);

    /** Serve one decoded request: its response joins the pipeline. */
    void dispatch(Connection &conn, WireRequest request);

    /** Queue an already-resolved response on the writer pipeline. */
    void enqueueReady(Connection &conn, WireResponse response,
                      bool close_after = false);

    void reapFinished();

    ServerConfig config_;
    std::shared_ptr<ModelRegistry> registry_;
    TenantTable tenants_;
    obs::SloTracker slo_;
    std::unique_ptr<AdminServer> admin_;

    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::thread acceptThread_;
    std::atomic<bool> running_{false};
    std::atomic<uint64_t> accepted_{0};

    std::mutex connectionsMutex_;
    std::vector<std::unique_ptr<Connection>> connections_;
};

} // namespace serving
} // namespace nebula

#endif // NEBULA_SERVING_SERVER_HPP
