/**
 * @file
 * Blocking socket I/O shared by the wire server, the wire client and
 * the admin endpoint. Frames cross the socket in bursts:
 *
 *  - Reads go through one StreamBuffer per reader. A single recv takes
 *    every byte the kernel holds (up to the buffer's free space), and
 *    readFrame() then hands out each whole frame in place from that
 *    buffer, so a burst of pipelined frames costs one recv, not two or
 *    three per frame. The buffer keeps a fixed chunk and grows past it
 *    only to fit one frame whose header has already passed the caller's
 *    body cap: it never holds more than max(chunk, header + extension +
 *    max body) bytes.
 *  - Writes are whole buffers (writeFully). Callers coalesce: the
 *    server writer appends settled responses to one output buffer and
 *    sends it in one call (see ServingServer::writerLoop).
 *
 * Every call retries on EINTR and short transfers, and writes never
 * raise SIGPIPE.
 */

#ifndef NEBULA_SERVING_SOCKET_IO_HPP
#define NEBULA_SERVING_SOCKET_IO_HPP

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "serving/protocol.hpp"

namespace nebula {
namespace serving {

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

/** Bytes received from one stream and not yet consumed. */
class StreamBuffer
{
  public:
    /** Fixed receive chunk: a burst of small frames fits in one recv. */
    static constexpr size_t kChunkBytes = 16 << 10;

    const uint8_t *data() const { return buf_.data() + begin_; }
    size_t size() const { return end_ - begin_; }

    /** Drop the first @p n buffered bytes. */
    void consume(size_t n)
    {
        begin_ += n;
        if (begin_ == end_)
            begin_ = end_ = 0;
    }

    /**
     * recv until at least @p n bytes are buffered, each call taking as
     * much as the kernel holds; false on EOF, error or timeout.
     */
    bool fill(int fd, size_t n)
    {
        while (size() < n) {
            if (begin_ + n > buf_.size()) {
                // Slide the unconsumed tail to the front, growing only
                // when one frame outsizes the chunk.
                if (begin_ > 0) {
                    std::memmove(buf_.data(), data(), size());
                    end_ -= begin_;
                    begin_ = 0;
                }
                if (n > buf_.size())
                    buf_.resize(std::max(n, kChunkBytes));
            }
            const ssize_t got =
                ::recv(fd, buf_.data() + end_, buf_.size() - end_, 0);
            if (got > 0) {
                end_ += static_cast<size_t>(got);
                continue;
            }
            if (got < 0 && errno == EINTR)
                continue;
            return false; // EOF (0), timeout or hard error
        }
        return true;
    }

  private:
    std::vector<uint8_t> buf_;
    size_t begin_ = 0; //!< first unconsumed byte
    size_t end_ = 0;   //!< one past the last received byte
};

/** One whole frame, in place in its StreamBuffer. */
struct Frame
{
    FrameHeader header;
    const uint8_t *body = nullptr; //!< header.bodyLen bytes
    size_t bytes = 0;              //!< header + extension + body
};

/**
 * Buffer the next whole frame of @p fd, of type @p type, in @p in.
 * @return Ok with @p frame pointing into @p in (valid until its next
 * fill or consume; the caller consumes frame.bytes); the typed header
 * error (BadFrame, also for another frame type, UnsupportedVersion,
 * PayloadTooLarge), decided before the buffer grows for any body byte;
 * or ConnectionLost when the stream ends or fails before a whole frame
 * arrived.
 */
inline WireStatus
readFrame(int fd, StreamBuffer &in, size_t max_body, FrameType type,
          Frame &frame)
{
    if (!in.fill(fd, kHeaderBytes))
        return WireStatus::ConnectionLost;
    const WireStatus status =
        decodeHeader(in.data(), kHeaderBytes, max_body, frame.header);
    if (status != WireStatus::Ok)
        return status;
    if (frame.header.type != type)
        return WireStatus::BadFrame;
    // v2+ frames carry a header extension (trace context; v3 adds the
    // integrity flags) between the fixed header and the body.
    const size_t extra = headerExtraBytes(frame.header.version);
    frame.bytes = kHeaderBytes + extra + frame.header.bodyLen;
    if (!in.fill(fd, frame.bytes))
        return WireStatus::ConnectionLost;
    if (decodeHeaderExtra(in.data() + kHeaderBytes, extra, frame.header) !=
        WireStatus::Ok)
        return WireStatus::BadFrame;
    frame.body = in.data() + kHeaderBytes + extra;
    return WireStatus::Ok;
}

} // namespace serving
} // namespace nebula

#endif // NEBULA_SERVING_SOCKET_IO_HPP
