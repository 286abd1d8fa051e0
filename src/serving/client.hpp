/**
 * @file
 * C++ client for the serving front-end: one TCP connection, a writer
 * (the caller's thread, under a send mutex) and a background reader
 * thread matching responses to promises by correlation id. Supports
 * blocking calls (infer) and pipelined async calls (inferAsync) on the
 * same connection; responses arrive in server order, the corr-id map
 * keeps delivery robust anyway.
 *
 * Liveness: every future resolves. A lost/closed/timed-out connection
 * fails all pending requests with the client-local ConnectionLost
 * status; a failed send resolves that request with SendFailed. The
 * client never throws on wire traffic.
 */

#ifndef NEBULA_SERVING_CLIENT_HPP
#define NEBULA_SERVING_CLIENT_HPP

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serving/protocol.hpp"

namespace nebula {
namespace serving {

/** Client connection knobs. */
struct ClientConfig
{
    /**
     * Receive timeout (ms) guarding against a wedged server; 0
     * disables. On expiry every pending request resolves to
     * ConnectionLost and the connection closes.
     */
    int recvTimeoutMs = 30000;
};

/** Per-request knobs of one client call. */
struct ServeOptions
{
    int timesteps = 0;      //!< 0: server/engine default
    uint64_t deadlineNs = 0;//!< 0: server default
    uint64_t seed = 0;      //!< 0: engine derives per request
};

/** Blocking + async serving client. */
class ServingClient
{
  public:
    ServingClient() = default;

    /** close()s if the caller has not. */
    ~ServingClient();

    ServingClient(const ServingClient &) = delete;
    ServingClient &operator=(const ServingClient &) = delete;

    /** Connect and start the reader; false on failure. */
    bool connect(const std::string &host, uint16_t port,
                 const ClientConfig &config = {});

    bool connected() const { return open_.load(); }

    /**
     * Pipeline one request; the future resolves to the typed wire
     * response (or a client-local ConnectionLost/SendFailed).
     */
    std::future<WireResponse> inferAsync(const std::string &tenant,
                                         const std::string &model,
                                         WireMode mode, const Tensor &image,
                                         const ServeOptions &options = {});

    /** Blocking form of inferAsync. */
    WireResponse infer(const std::string &tenant, const std::string &model,
                       WireMode mode, const Tensor &image,
                       const ServeOptions &options = {});

    /** Close the connection; fails all pending requests. Idempotent. */
    void close();

  private:
    void readerLoop();

    /** Resolve every pending promise with @p status. */
    void failAllPending(WireStatus status);

    int fd_ = -1;
    std::atomic<bool> open_{false};
    std::atomic<uint64_t> nextCorrId_{1};
    std::thread reader_;

    std::mutex sendMutex_;
    std::vector<uint8_t> sendBuf_; //!< one request frame; under sendMutex_
    std::mutex pendingMutex_;
    std::map<uint64_t, std::promise<WireResponse>> pending_;
    /** corr id -> trace id of in-flight traced requests (flow end). */
    std::map<uint64_t, uint64_t> pendingTrace_;
};

} // namespace serving
} // namespace nebula

#endif // NEBULA_SERVING_CLIENT_HPP
