/**
 * @file
 * Wire protocol of the serving front-end: a length-prefixed binary
 * framing over TCP, little-endian throughout.
 *
 *   Frame   = [u32 magic "NEBP"] [u8 version] [u8 type] [u16 reserved]
 *             [u32 bodyLen] [v2: u64 traceId] [body ...]
 *   Request = [u64 corrId] [u8 mode] [u32 timesteps] [u64 deadlineNs]
 *             [u64 seed] [u8 len + tenant] [u8 len + model]
 *             [u8 rank] [i32 dims]* [f32 data]*
 *   Response= [u64 corrId] [u16 status] [i32 predictedClass]
 *             [f64 serverMs] [u16 len + message]
 *             [u8 rank] [i32 dims]* [f32 logits]*
 *
 * Every malformed input maps to a typed WireStatus -- the decoder
 * never throws on wire bytes and never reads past the buffer, so a
 * truncated frame, an oversized length prefix or random garbage yields
 * a clean error response (then a close), not a crash or a hang. The
 * float payloads travel as raw IEEE-754 bits, so a round trip is
 * bit-exact and the determinism guarantee of the engine (per-request
 * encoder seeds) extends across the socket.
 *
 * Versioning: v1 is the fixed 12-byte header above; v2 appends a u64
 * trace-context id (the Perfetto flow id linking client, server and
 * worker spans) between the fixed header and the body; v3 appends one
 * more byte after the trace id -- the ABFT integrity flags of a
 * response (bit 0: checksum comparisons ran, bit 1: a comparison
 * flagged corruption, bit 2: the result comes from a fallback re-run).
 * Encoders always emit the *lowest* version whose extension fields are
 * all zero: untraced unflagged traffic stays byte-identical to the old
 * wire format, traced-but-unflagged traffic stays v2, and v1/v2-only
 * peers interoperate until a flag actually needs to travel. Decoders
 * accept all three versions.
 */

#ifndef NEBULA_SERVING_PROTOCOL_HPP
#define NEBULA_SERVING_PROTOCOL_HPP

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace nebula {
namespace serving {

constexpr uint32_t kWireMagic = 0x4E454250u; // "NEBP"
constexpr uint8_t kWireVersion = 1;      //!< fixed-header frames
constexpr uint8_t kWireVersionTrace = 2; //!< + u64 trace-context id
constexpr uint8_t kWireVersionIntegrity = 3; //!< + u8 integrity flags
constexpr size_t kHeaderBytes = 12;      //!< fixed part, every version
constexpr size_t kTraceContextBytes = 8; //!< v2 header extension
constexpr size_t kIntegrityBytes = 1;    //!< extra v3 header extension

/** Largest header extension any known version carries. */
constexpr size_t kMaxHeaderExtraBytes =
    kTraceContextBytes + kIntegrityBytes;

// FrameHeader::integrity flag bits (v3 header extension).
constexpr uint8_t kIntegrityFlagChecked = 0x01;    //!< ABFT ran
constexpr uint8_t kIntegrityFlagViolation = 0x02;  //!< corruption seen
constexpr uint8_t kIntegrityFlagReExecuted = 0x04; //!< fallback re-run

/** Header-extension length that follows the fixed 12 bytes. */
constexpr size_t
headerExtraBytes(uint8_t version)
{
    if (version >= kWireVersionIntegrity)
        return kTraceContextBytes + kIntegrityBytes;
    return version >= kWireVersionTrace ? kTraceContextBytes : 0;
}
constexpr int kMaxTensorRank = 8;
constexpr long long kMaxTensorDim = 1 << 20;

/** Frame payload kind. */
enum class FrameType : uint8_t
{
    Request = 1,
    Response = 2,
};

/**
 * Typed outcome of one wire request. Values < 16 mirror the engine's
 * RuntimeErrorKind; 16..99 are protocol/serving-layer outcomes; values
 * >= 100 are client-local synthetics (never sent on the wire).
 */
enum class WireStatus : uint16_t
{
    Ok = 0,
    Timeout = 1,       //!< deadline expired before evaluation
    Shed = 2,          //!< engine admission control refused the request
    EngineStopped = 3, //!< model engine shut down mid-request
    ReplicaFault = 4,  //!< serving replica threw (transient)
    Cancelled = 5,

    BadFrame = 16,           //!< malformed header or body
    UnsupportedVersion = 17, //!< magic ok, version unknown
    PayloadTooLarge = 18,    //!< length prefix exceeds the server cap
    BadRequest = 19,         //!< well-framed but semantically invalid
    UnknownModel = 20,       //!< (model, mode) not in the registry catalog
    QuotaExceeded = 21,      //!< tenant token bucket empty (typed shed)
    Internal = 22,           //!< unexpected server-side failure

    ConnectionLost = 100, //!< client-local: socket closed mid-request
    SendFailed = 101,     //!< client-local: could not write the frame
};

/** Stable lower-case name ("ok", "quota_exceeded", ...). */
const char *toString(WireStatus status);

/** Inference mode requested on the wire. */
enum class WireMode : uint8_t
{
    Ann = 0,
    Snn = 1,
    Hybrid = 2,
};

const char *toString(WireMode mode);

/** Parse "ann" / "snn" / "hybrid"; false on anything else. */
bool parseWireMode(const std::string &text, WireMode &out);

/** Frame header (see file comment for layout). */
struct FrameHeader
{
    uint32_t magic = kWireMagic;
    uint8_t version = kWireVersion;
    FrameType type = FrameType::Request;
    uint32_t bodyLen = 0;
    uint64_t traceId = 0;  //!< v2+ extension (0 on v1 frames)
    uint8_t integrity = 0; //!< v3 extension flags (0 below v3)
};

/** One decoded inference request. */
struct WireRequest
{
    uint64_t corrId = 0;     //!< client-chosen correlation id (echoed)
    WireMode mode = WireMode::Ann;
    uint32_t timesteps = 0;  //!< 0: engine default
    uint64_t deadlineNs = 0; //!< 0: server/engine default
    uint64_t seed = 0;       //!< 0: engine derives from request id
    uint64_t traceId = 0;    //!< flow id from the v2 header (0: none)
    std::string tenant;
    std::string model;       //!< catalog family, e.g. "mlp3"
    Tensor image;
};

/** One decoded inference response. */
struct WireResponse
{
    uint64_t corrId = 0;
    WireStatus status = WireStatus::Ok;
    int32_t predictedClass = -1;
    double serverMs = 0.0; //!< receive-to-respond latency at the server
    std::string message;   //!< human-readable detail (empty when ok)
    Tensor logits;         //!< empty on error

    /**
     * ABFT verdict flags (kIntegrityFlag*), carried in the v3 frame
     * header rather than the body so the response body layout is
     * untouched. 0 when the serving replica ran no checksum
     * comparisons -- which also keeps the frame at v1/v2.
     */
    uint8_t integrity = 0;

    bool integrityChecked() const
    {
        return (integrity & kIntegrityFlagChecked) != 0;
    }
    bool integrityViolation() const
    {
        return (integrity & kIntegrityFlagViolation) != 0;
    }
    bool integrityReExecuted() const
    {
        return (integrity & kIntegrityFlagReExecuted) != 0;
    }
};

/** Bounds-checked little-endian reader; all reads fail-soft. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size) : data_(data), size_(size) {}

    bool u8(uint8_t &v);
    bool u16(uint16_t &v);
    bool u32(uint32_t &v);
    bool u64(uint64_t &v);
    bool i32(int32_t &v);
    bool f64(double &v);
    bool bytes(void *out, size_t n);
    bool str(std::string &out, size_t len);

    size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

/** Little-endian appender over a growable byte vector. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<uint8_t> &out) : out_(out) {}

    void u8(uint8_t v) { out_.push_back(v); }
    void u16(uint16_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void f64(double v);
    void bytes(const void *data, size_t n);

  private:
    std::vector<uint8_t> &out_;
};

/**
 * Validate the fixed 12-byte part of a header. @return Ok, BadFrame
 * (magic/type), UnsupportedVersion (not v1/v2), or PayloadTooLarge
 * (bodyLen > @p max_body). On Ok the caller must still read
 * headerExtraBytes(out.version) extension bytes and hand them to
 * decodeHeaderExtra before the body.
 */
WireStatus decodeHeader(const uint8_t *raw, size_t size, size_t max_body,
                        FrameHeader &out);

/**
 * Decode the version-dependent header extension (v2: the u64 trace
 * id; v3: trace id + u8 integrity flags) into @p out. @p size must be
 * headerExtraBytes(out.version); a v1 header is a no-op. @return Ok or
 * BadFrame.
 */
WireStatus decodeHeaderExtra(const uint8_t *raw, size_t size,
                             FrameHeader &out);

/**
 * Encode a complete frame (header + body) for @p type. The version is
 * the lowest one whose extension fields are all zero: non-zero
 * @p integrity emits v3 (trace id + flags), else a non-zero
 * @p trace_id emits v2, else v1 -- byte-identical to the pre-trace
 * wire format.
 */
std::vector<uint8_t> encodeFrame(FrameType type,
                                 const std::vector<uint8_t> &body,
                                 uint64_t trace_id = 0,
                                 uint8_t integrity = 0);

/** Request body -> bytes (frame it with encodeFrame). */
std::vector<uint8_t> encodeRequestBody(const WireRequest &request);

/** Response body -> bytes. */
std::vector<uint8_t> encodeResponseBody(const WireResponse &response);

/** Convenience: full request/response frames. */
std::vector<uint8_t> encodeRequestFrame(const WireRequest &request);
std::vector<uint8_t> encodeResponseFrame(const WireResponse &response);

/**
 * Decode a request body. @return Ok or BadFrame/BadRequest; on failure
 * @p out.corrId still carries the correlation id when the first eight
 * bytes were readable, so the error response can be matched.
 */
WireStatus decodeRequestBody(const uint8_t *data, size_t size,
                             WireRequest &out);

/** Decode a response body (client side). */
WireStatus decodeResponseBody(const uint8_t *data, size_t size,
                              WireResponse &out);

} // namespace serving
} // namespace nebula

#endif // NEBULA_SERVING_PROTOCOL_HPP
