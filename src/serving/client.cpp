#include "serving/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "serving/socket_io.hpp"

namespace nebula {
namespace serving {

ServingClient::~ServingClient()
{
    close();
}

bool
ServingClient::connect(const std::string &host, uint16_t port,
                       const ClientConfig &config)
{
    if (open_.load())
        return false; // already connected

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
            0) {
        ::close(fd);
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config.recvTimeoutMs > 0) {
        timeval tv{};
        tv.tv_sec = config.recvTimeoutMs / 1000;
        tv.tv_usec = (config.recvTimeoutMs % 1000) * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }

    fd_ = fd;
    open_.store(true);
    reader_ = std::thread([this] { readerLoop(); });
    return true;
}

std::future<WireResponse>
ServingClient::inferAsync(const std::string &tenant,
                          const std::string &model, WireMode mode,
                          const Tensor &image, const ServeOptions &options)
{
    std::promise<WireResponse> promise;
    std::future<WireResponse> future = promise.get_future();

    WireRequest request;
    request.corrId = nextCorrId_.fetch_add(1);
    request.mode = mode;
    request.timesteps = static_cast<uint32_t>(options.timesteps);
    request.deadlineNs = options.deadlineNs;
    request.seed = options.seed;
    request.tenant = tenant;
    request.model = model;
    request.image = image;

    // With an active trace session, stamp a trace id into the frame
    // header (protocol v2) so the server and worker spans join this
    // request's flow; without one, traceId stays 0 and the encoder
    // emits a byte-identical v1 frame.
    if (obs::TraceSession::enabled()) {
        request.traceId = obs::nextTraceId();
        obs::TraceSpan span("client", "serve.submit");
        span.arg("corr_id", static_cast<double>(request.corrId));
        obs::recordFlowStart("client", "request.flow", request.traceId);
    }

    if (!open_.load()) {
        WireResponse response;
        response.corrId = request.corrId;
        response.status = WireStatus::ConnectionLost;
        response.message = "client not connected";
        promise.set_value(std::move(response));
        return future;
    }

    // Register before sending so the reader can never see the response
    // before the promise exists.
    {
        std::lock_guard<std::mutex> lock(pendingMutex_);
        pending_.emplace(request.corrId, std::move(promise));
        if (request.traceId != 0)
            pendingTrace_.emplace(request.corrId, request.traceId);
    }

    bool sent;
    {
        std::lock_guard<std::mutex> lock(sendMutex_);
        sendBuf_.clear();
        appendRequestFrame(sendBuf_, request);
        sent = writeFully(fd_, sendBuf_.data(), sendBuf_.size());
    }
    if (!sent) {
        std::lock_guard<std::mutex> lock(pendingMutex_);
        const auto it = pending_.find(request.corrId);
        if (it != pending_.end()) {
            WireResponse response;
            response.corrId = request.corrId;
            response.status = WireStatus::SendFailed;
            response.message = "could not write request frame";
            it->second.set_value(std::move(response));
            pending_.erase(it);
            pendingTrace_.erase(request.corrId);
        }
    } else if (!open_.load()) {
        // The reader died between registration and the send: its
        // failAllPending sweep may have run before our promise landed,
        // so sweep again -- nothing may be left behind to hang on.
        failAllPending(WireStatus::ConnectionLost);
    }
    return future;
}

WireResponse
ServingClient::infer(const std::string &tenant, const std::string &model,
                     WireMode mode, const Tensor &image,
                     const ServeOptions &options)
{
    return inferAsync(tenant, model, mode, image, options).get();
}

void
ServingClient::readerLoop()
{
    StreamBuffer in;
    Frame frame;
    while (open_.load()) {
        // Unflagged responses arrive as v1 frames; a v3 response
        // carries the ABFT integrity flags in its header extension
        // (and a v2 one a trace context, tolerated for forward
        // compatibility).
        if (readFrame(fd_, in, /*max_body=*/1 << 26, FrameType::Response,
                      frame) != WireStatus::Ok)
            break;
        WireResponse response;
        const WireStatus status =
            decodeResponseBody(frame.body, frame.header.bodyLen, response);
        in.consume(frame.bytes);
        if (status != WireStatus::Ok)
            break;
        response.integrity = frame.header.integrity;

        std::promise<WireResponse> promise;
        bool matched = false;
        uint64_t trace_id = 0;
        {
            std::lock_guard<std::mutex> lock(pendingMutex_);
            const auto it = pending_.find(response.corrId);
            if (it != pending_.end()) {
                promise = std::move(it->second);
                pending_.erase(it);
                matched = true;
            }
            const auto trace_it = pendingTrace_.find(response.corrId);
            if (trace_it != pendingTrace_.end()) {
                trace_id = trace_it->second;
                pendingTrace_.erase(trace_it);
            }
        }
        if (trace_id != 0) {
            obs::TraceSpan span("client", "serve.response");
            span.arg("corr_id", static_cast<double>(response.corrId));
            obs::recordFlowEnd("client", "request.flow", trace_id);
        }
        if (matched) {
            promise.set_value(std::move(response));
        } else if (response.status != WireStatus::Ok) {
            // Unmatchable error (e.g. a bad-header response with corr
            // id 0): the server is about to close -- fail everything
            // with the typed status so no caller hangs.
            failAllPending(response.status);
        }
    }
    open_.store(false);
    failAllPending(WireStatus::ConnectionLost);
}

void
ServingClient::failAllPending(WireStatus status)
{
    std::map<uint64_t, std::promise<WireResponse>> orphaned;
    {
        std::lock_guard<std::mutex> lock(pendingMutex_);
        orphaned.swap(pending_);
        pendingTrace_.clear();
    }
    for (auto &[corr_id, promise] : orphaned) {
        WireResponse response;
        response.corrId = corr_id;
        response.status = status;
        response.message = "connection failed";
        promise.set_value(std::move(response));
    }
}

void
ServingClient::close()
{
    if (open_.exchange(false)) {
        ::shutdown(fd_, SHUT_RDWR);
    }
    if (reader_.joinable())
        reader_.join();
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    failAllPending(WireStatus::ConnectionLost);
}

} // namespace serving
} // namespace nebula
