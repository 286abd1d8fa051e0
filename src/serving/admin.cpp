#include "serving/admin.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "serving/socket_io.hpp"

namespace nebula {
namespace serving {

namespace {

const char *
statusText(int status)
{
    switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    }
    return "Internal Server Error";
}

} // namespace

AdminServer::AdminServer(AdminConfig config) : config_(std::move(config)) {}

AdminServer::~AdminServer()
{
    stop();
}

void
AdminServer::handle(const std::string &path, AdminHandler handler)
{
    NEBULA_ASSERT(!running_.load(),
                  "admin handlers are immutable while running");
    handlers_[path] = std::move(handler);
}

void
AdminServer::start()
{
    NEBULA_ASSERT(listenFd_ < 0, "admin server already started");

    // Defaults for anything the embedder did not override: the global
    // registry is the one every built-in instrumentation point feeds.
    if (!handlers_.count("/metrics"))
        handlers_["/metrics"] = [] {
            AdminResponse res;
            res.contentType = "text/plain; version=0.0.4; charset=utf-8";
            res.body = obs::MetricsRegistry::global().toPrometheus();
            return res;
        };
    if (!handlers_.count("/statusz"))
        handlers_["/statusz"] = [] {
            AdminResponse res;
            res.contentType = "application/json";
            res.body = obs::MetricsRegistry::global().toJson();
            return res;
        };
    if (!handlers_.count("/healthz"))
        handlers_["/healthz"] = [] {
            AdminResponse res;
            res.body = "ok\n";
            return res;
        };

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("admin: socket() failed");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("admin: bad host " + config_.host);
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, config_.backlog) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("admin: bind/listen failed on " +
                                 config_.host + ":" +
                                 std::to_string(config_.port));
    }

    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    running_.store(true);
    thread_ = std::thread([this] { serveLoop(); });
    NEBULA_DEBUG("serving", "admin endpoint on ", config_.host, ":", port_);
}

void
AdminServer::serveLoop()
{
    while (running_.load()) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listener closed by stop()
        }
        if (!running_.load()) {
            ::close(fd);
            break;
        }
        timeval tv{};
        tv.tv_sec = config_.ioTimeoutMs / 1000;
        tv.tv_usec = (config_.ioTimeoutMs % 1000) * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        serveOne(fd);
        ::close(fd);
    }
}

void
AdminServer::serveOne(int fd)
{
    // Read the request head (we never accept a body). The timeout set
    // by the caller bounds a client that trickles or stalls.
    std::string head;
    char buf[1024];
    while (head.find("\r\n\r\n") == std::string::npos &&
           head.find("\n\n") == std::string::npos) {
        if (head.size() > config_.maxRequestBytes)
            break;
        const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
        if (got > 0) {
            head.append(buf, static_cast<size_t>(got));
            continue;
        }
        if (got < 0 && errno == EINTR)
            continue;
        if (head.find('\n') != std::string::npos)
            break; // EOF after the request line: still answerable
        return;    // nothing usable arrived
    }

    AdminResponse res;
    const size_t line_end = head.find_first_of("\r\n");
    const std::string line =
        line_end == std::string::npos ? head : head.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        head.size() > config_.maxRequestBytes) {
        res.status = 400;
        res.body = "bad request\n";
    } else if (line.substr(0, sp1) != "GET") {
        res.status = 405;
        res.body = "only GET is served here\n";
    } else {
        std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
        const size_t query = path.find('?');
        if (query != std::string::npos)
            path.resize(query);
        auto it = handlers_.find(path);
        if (it == handlers_.end()) {
            res.status = 404;
            res.body = "unknown path " + path + "\n";
        } else {
            res = it->second();
        }
    }

    std::string reply = "HTTP/1.0 " + std::to_string(res.status) + " " +
                        statusText(res.status) + "\r\n";
    reply += "Content-Type: " + res.contentType + "\r\n";
    reply += "Content-Length: " + std::to_string(res.body.size()) + "\r\n";
    reply += "Connection: close\r\n\r\n";
    reply += res.body;
    writeFully(fd, reply.data(), reply.size());
    served_.fetch_add(1);
}

void
AdminServer::stop()
{
    if (!running_.exchange(false)) {
        if (listenFd_ >= 0) {
            ::close(listenFd_);
            listenFd_ = -1;
        }
        return;
    }
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    if (thread_.joinable())
        thread_.join();
    listenFd_ = -1;
}

} // namespace serving
} // namespace nebula
