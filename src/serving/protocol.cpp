#include "serving/protocol.hpp"

#include <algorithm>
#include <bit>

namespace nebula {
namespace serving {

const char *
toString(WireStatus status)
{
    switch (status) {
    case WireStatus::Ok: return "ok";
    case WireStatus::Timeout: return "timeout";
    case WireStatus::Shed: return "shed";
    case WireStatus::EngineStopped: return "engine_stopped";
    case WireStatus::ReplicaFault: return "replica_fault";
    case WireStatus::Cancelled: return "cancelled";
    case WireStatus::BadFrame: return "bad_frame";
    case WireStatus::UnsupportedVersion: return "unsupported_version";
    case WireStatus::PayloadTooLarge: return "payload_too_large";
    case WireStatus::BadRequest: return "bad_request";
    case WireStatus::UnknownModel: return "unknown_model";
    case WireStatus::QuotaExceeded: return "quota_exceeded";
    case WireStatus::Internal: return "internal";
    case WireStatus::ConnectionLost: return "connection_lost";
    case WireStatus::SendFailed: return "send_failed";
    }
    return "unknown";
}

const char *
toString(WireMode mode)
{
    switch (mode) {
    case WireMode::Ann: return "ann";
    case WireMode::Snn: return "snn";
    case WireMode::Hybrid: return "hybrid";
    }
    return "unknown";
}

bool
parseWireMode(const std::string &text, WireMode &out)
{
    if (text == "ann") {
        out = WireMode::Ann;
    } else if (text == "snn") {
        out = WireMode::Snn;
    } else if (text == "hybrid") {
        out = WireMode::Hybrid;
    } else {
        return false;
    }
    return true;
}

// -- ByteReader -----------------------------------------------------------

bool
ByteReader::bytes(void *out, size_t n)
{
    if (size_ - pos_ < n)
        return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
}

bool
ByteReader::u8(uint8_t &v)
{
    return bytes(&v, 1);
}

bool
ByteReader::u16(uint16_t &v)
{
    uint8_t b[2];
    if (!bytes(b, 2))
        return false;
    v = static_cast<uint16_t>(b[0] | (b[1] << 8));
    return true;
}

bool
ByteReader::u32(uint32_t &v)
{
    uint8_t b[4];
    if (!bytes(b, 4))
        return false;
    v = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
        (static_cast<uint32_t>(b[2]) << 16) |
        (static_cast<uint32_t>(b[3]) << 24);
    return true;
}

bool
ByteReader::u64(uint64_t &v)
{
    uint32_t lo, hi;
    if (!u32(lo) || !u32(hi))
        return false;
    v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
}

bool
ByteReader::i32(int32_t &v)
{
    uint32_t raw;
    if (!u32(raw))
        return false;
    v = static_cast<int32_t>(raw);
    return true;
}

bool
ByteReader::f64(double &v)
{
    uint64_t raw;
    if (!u64(raw))
        return false;
    v = std::bit_cast<double>(raw);
    return true;
}

bool
ByteReader::str(std::string &out, size_t len)
{
    if (size_ - pos_ < len)
        return false;
    out.assign(reinterpret_cast<const char *>(data_) + pos_, len);
    pos_ += len;
    return true;
}

// -- ByteWriter -----------------------------------------------------------

void
ByteWriter::u16(uint16_t v)
{
    out_.push_back(static_cast<uint8_t>(v));
    out_.push_back(static_cast<uint8_t>(v >> 8));
}

void
ByteWriter::u32(uint32_t v)
{
    out_.push_back(static_cast<uint8_t>(v));
    out_.push_back(static_cast<uint8_t>(v >> 8));
    out_.push_back(static_cast<uint8_t>(v >> 16));
    out_.push_back(static_cast<uint8_t>(v >> 24));
}

void
ByteWriter::u64(uint64_t v)
{
    u32(static_cast<uint32_t>(v));
    u32(static_cast<uint32_t>(v >> 32));
}

void
ByteWriter::f64(double v)
{
    u64(std::bit_cast<uint64_t>(v));
}

void
ByteWriter::bytes(const void *data, size_t n)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    out_.insert(out_.end(), p, p + n);
}

// -- tensors --------------------------------------------------------------

namespace {

// Tensor payloads travel as one block copy of the host floats: that is
// the wire's little-endian IEEE-754 layout only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the bulk tensor codec needs a little-endian host");
static_assert(sizeof(float) == 4, "wire floats are 4 bytes");

/** Encoded size of writeTensor(t). */
size_t
tensorBytes(const Tensor &t)
{
    return 1 + 4 * static_cast<size_t>(t.rank()) +
           4 * static_cast<size_t>(t.size());
}

void
writeTensor(ByteWriter &w, const Tensor &t)
{
    w.u8(static_cast<uint8_t>(t.rank()));
    for (int i = 0; i < t.rank(); ++i)
        w.i32(t.dim(i));
    w.bytes(t.data(), 4 * static_cast<size_t>(t.size()));
}

/** Shape-validated tensor read; BadFrame on any violation. */
bool
readTensor(ByteReader &r, Tensor &out)
{
    uint8_t rank;
    if (!r.u8(rank) || rank > kMaxTensorRank)
        return false;
    if (rank == 0) {
        out = Tensor(); // no payload: empty, not Tensor({}) of size 1
        return true;
    }
    std::vector<int> shape(rank);
    long long total = 1;
    for (uint8_t i = 0; i < rank; ++i) {
        int32_t d;
        if (!r.i32(d) || d < 1 || d > kMaxTensorDim)
            return false;
        shape[i] = d;
        total *= d;
        if (total > kMaxTensorDim * 16)
            return false; // element cap, independent of the frame cap
    }
    if (r.remaining() < static_cast<size_t>(total) * 4)
        return false;
    Tensor t(shape);
    if (!r.bytes(t.data(), static_cast<size_t>(total) * 4))
        return false;
    out = std::move(t);
    return true;
}

void
writeShortString(ByteWriter &w, const std::string &s)
{
    const size_t n = std::min<size_t>(s.size(), 255);
    w.u8(static_cast<uint8_t>(n));
    w.bytes(s.data(), n);
}

} // namespace

// -- frames ---------------------------------------------------------------

WireStatus
decodeHeader(const uint8_t *raw, size_t size, size_t max_body,
             FrameHeader &out)
{
    ByteReader r(raw, size);
    uint32_t magic;
    uint8_t version, type;
    uint16_t reserved;
    uint32_t body_len;
    if (!r.u32(magic) || !r.u8(version) || !r.u8(type) || !r.u16(reserved) ||
        !r.u32(body_len))
        return WireStatus::BadFrame;
    if (magic != kWireMagic)
        return WireStatus::BadFrame;
    if (version != kWireVersion && version != kWireVersionTrace &&
        version != kWireVersionIntegrity)
        return WireStatus::UnsupportedVersion;
    if (type != static_cast<uint8_t>(FrameType::Request) &&
        type != static_cast<uint8_t>(FrameType::Response))
        return WireStatus::BadFrame;
    if (body_len > max_body)
        return WireStatus::PayloadTooLarge;
    out.magic = magic;
    out.version = version;
    out.type = static_cast<FrameType>(type);
    out.bodyLen = body_len;
    out.traceId = 0;   // filled by decodeHeaderExtra on v2+ frames
    out.integrity = 0; // filled by decodeHeaderExtra on v3 frames
    return WireStatus::Ok;
}

WireStatus
decodeHeaderExtra(const uint8_t *raw, size_t size, FrameHeader &out)
{
    const size_t expected = headerExtraBytes(out.version);
    if (size != expected)
        return WireStatus::BadFrame;
    if (expected == 0)
        return WireStatus::Ok;
    ByteReader r(raw, size);
    if (!r.u64(out.traceId))
        return WireStatus::BadFrame;
    if (out.version >= kWireVersionIntegrity && !r.u8(out.integrity))
        return WireStatus::BadFrame;
    return WireStatus::Ok;
}

namespace {

/** Grow @p out geometrically so that @p n more bytes fit. */
void
reserveMore(std::vector<uint8_t> &out, size_t n)
{
    if (out.capacity() - out.size() < n)
        out.reserve(std::max(out.size() + n, 2 * out.capacity()));
}

/**
 * Append a frame header with a zero body length and return where it
 * starts; the caller appends the body and closeFrame() patches the
 * length. The version is the lowest one whose extension fields are all
 * zero: unflagged untraced frames stay byte-identical to the v1 wire
 * format.
 */
size_t
openFrame(std::vector<uint8_t> &out, FrameType type, uint64_t trace_id,
          uint8_t integrity)
{
    const uint8_t version = integrity ? kWireVersionIntegrity
                            : trace_id ? kWireVersionTrace
                                       : kWireVersion;
    const size_t at = out.size();
    ByteWriter w(out);
    w.u32(kWireMagic);
    w.u8(version);
    w.u8(static_cast<uint8_t>(type));
    w.u16(0);
    w.u32(0); // body length, patched by closeFrame
    if (version >= kWireVersionTrace)
        w.u64(trace_id);
    if (version >= kWireVersionIntegrity)
        w.u8(integrity);
    return at;
}

/** Patch the body length of the frame openFrame() started at @p at. */
void
closeFrame(std::vector<uint8_t> &out, size_t at)
{
    const size_t body_at = at + kHeaderBytes + headerExtraBytes(out[at + 4]);
    const auto len = static_cast<uint32_t>(out.size() - body_at);
    for (int i = 0; i < 4; ++i)
        out[at + 8 + static_cast<size_t>(i)] =
            static_cast<uint8_t>(len >> (8 * i));
}

} // namespace

std::vector<uint8_t>
encodeFrame(FrameType type, const std::vector<uint8_t> &body,
            uint64_t trace_id, uint8_t integrity)
{
    std::vector<uint8_t> frame;
    frame.reserve(kHeaderBytes + kMaxHeaderExtraBytes + body.size());
    const size_t at = openFrame(frame, type, trace_id, integrity);
    ByteWriter(frame).bytes(body.data(), body.size());
    closeFrame(frame, at);
    return frame;
}

void
appendRequestFrame(std::vector<uint8_t> &out, const WireRequest &request)
{
    reserveMore(out, kHeaderBytes + kMaxHeaderExtraBytes + 29 + 2 +
                         std::min<size_t>(request.tenant.size(), 255) +
                         std::min<size_t>(request.model.size(), 255) +
                         tensorBytes(request.image));
    const size_t at =
        openFrame(out, FrameType::Request, request.traceId, /*integrity=*/0);
    ByteWriter w(out);
    w.u64(request.corrId);
    w.u8(static_cast<uint8_t>(request.mode));
    w.u32(request.timesteps);
    w.u64(request.deadlineNs);
    w.u64(request.seed);
    writeShortString(w, request.tenant);
    writeShortString(w, request.model);
    writeTensor(w, request.image);
    closeFrame(out, at);
}

void
appendResponseFrame(std::vector<uint8_t> &out, const WireResponse &response)
{
    const size_t message_len =
        std::min<size_t>(response.message.size(), 65535);
    reserveMore(out, kHeaderBytes + kMaxHeaderExtraBytes + 24 + message_len +
                         tensorBytes(response.logits));
    const size_t at = openFrame(out, FrameType::Response, /*trace_id=*/0,
                                response.integrity);
    ByteWriter w(out);
    w.u64(response.corrId);
    w.u16(static_cast<uint16_t>(response.status));
    w.i32(response.predictedClass);
    w.f64(response.serverMs);
    w.u16(static_cast<uint16_t>(message_len));
    w.bytes(response.message.data(), message_len);
    writeTensor(w, response.logits);
    closeFrame(out, at);
}

std::vector<uint8_t>
encodeRequestFrame(const WireRequest &request)
{
    std::vector<uint8_t> frame;
    appendRequestFrame(frame, request);
    return frame;
}

std::vector<uint8_t>
encodeResponseFrame(const WireResponse &response)
{
    std::vector<uint8_t> frame;
    appendResponseFrame(frame, response);
    return frame;
}

WireStatus
decodeRequestBody(const uint8_t *data, size_t size, WireRequest &out)
{
    ByteReader r(data, size);
    // The corr id decodes first so even a malformed body can be
    // answered with a matchable error response.
    if (!r.u64(out.corrId))
        return WireStatus::BadFrame;
    uint8_t mode;
    if (!r.u8(mode) || !r.u32(out.timesteps) || !r.u64(out.deadlineNs) ||
        !r.u64(out.seed))
        return WireStatus::BadFrame;
    if (mode > static_cast<uint8_t>(WireMode::Hybrid))
        return WireStatus::BadRequest;
    out.mode = static_cast<WireMode>(mode);
    uint8_t len;
    if (!r.u8(len) || !r.str(out.tenant, len))
        return WireStatus::BadFrame;
    if (!r.u8(len) || !r.str(out.model, len))
        return WireStatus::BadFrame;
    if (!readTensor(r, out.image))
        return WireStatus::BadFrame;
    if (!r.done())
        return WireStatus::BadFrame; // trailing junk: reject, stay in sync
    if (out.tenant.empty() || out.model.empty())
        return WireStatus::BadRequest;
    return WireStatus::Ok;
}

WireStatus
decodeResponseBody(const uint8_t *data, size_t size, WireResponse &out)
{
    ByteReader r(data, size);
    if (!r.u64(out.corrId))
        return WireStatus::BadFrame;
    uint16_t status;
    if (!r.u16(status) || !r.i32(out.predictedClass) || !r.f64(out.serverMs))
        return WireStatus::BadFrame;
    out.status = static_cast<WireStatus>(status);
    uint16_t msg_len;
    if (!r.u16(msg_len) || !r.str(out.message, msg_len))
        return WireStatus::BadFrame;
    if (!readTensor(r, out.logits))
        return WireStatus::BadFrame;
    if (!r.done())
        return WireStatus::BadFrame;
    return WireStatus::Ok;
}

} // namespace serving
} // namespace nebula
