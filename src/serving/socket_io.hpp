/**
 * @file
 * Blocking whole-buffer socket I/O shared by the wire server, the wire
 * client and the admin endpoint: both helpers retry on EINTR and
 * short transfers, and writes never raise SIGPIPE.
 */

#ifndef NEBULA_SERVING_SOCKET_IO_HPP
#define NEBULA_SERVING_SOCKET_IO_HPP

#include <sys/socket.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>

namespace nebula {
namespace serving {

/** recv exactly @p n bytes; false on EOF, error or timeout. */
inline bool
readFully(int fd, void *buf, size_t n)
{
    uint8_t *p = static_cast<uint8_t *>(buf);
    while (n > 0) {
        const ssize_t got = ::recv(fd, p, n, 0);
        if (got > 0) {
            p += got;
            n -= static_cast<size_t>(got);
            continue;
        }
        if (got < 0 && errno == EINTR)
            continue;
        return false; // EOF (0), timeout or hard error
    }
    return true;
}

/** send the whole buffer; false on error. Never raises SIGPIPE. */
inline bool
writeFully(int fd, const void *buf, size_t n)
{
    const uint8_t *p = static_cast<const uint8_t *>(buf);
    while (n > 0) {
        const ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
        if (sent > 0) {
            p += sent;
            n -= static_cast<size_t>(sent);
            continue;
        }
        if (sent < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

} // namespace serving
} // namespace nebula

#endif // NEBULA_SERVING_SOCKET_IO_HPP
