#include "serving/artifacts.hpp"

#include <cstring>

namespace nebula {
namespace serving {

namespace {

constexpr uint32_t kArtifactMagic = 0x4e454241; // "NEBA"

uint64_t
fnv1a64(const uint8_t *data, size_t size)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

template <typename T>
void
put(std::vector<uint8_t> &out, const T &value)
{
    const auto *p = reinterpret_cast<const uint8_t *>(&value);
    out.insert(out.end(), p, p + sizeof(T));
}

/** Header fields of an artifact; false when they do not fit. */
struct Header
{
    std::string key;
    uint64_t payloadSize = 0;
    uint64_t digest = 0;
    size_t payloadAt = 0;
};

bool
readHeader(ArtifactView artifact, Header &header)
{
    size_t at = 0;
    auto read = [&](void *dst, size_t n) {
        if (n > artifact.size - at)
            return false;
        std::memcpy(dst, artifact.data + at, n);
        at += n;
        return true;
    };
    uint32_t magic = 0, key_size = 0;
    if (!read(&magic, sizeof(magic)) || magic != kArtifactMagic ||
        !read(&key_size, sizeof(key_size)) || key_size > artifact.size - at)
        return false;
    header.key.assign(reinterpret_cast<const char *>(artifact.data + at),
                      key_size);
    at += key_size;
    if (!read(&header.payloadSize, sizeof(header.payloadSize)) ||
        !read(&header.digest, sizeof(header.digest)))
        return false;
    header.payloadAt = at;
    return true;
}

} // namespace

const char *
toString(ArtifactStatus status)
{
    switch (status) {
    case ArtifactStatus::Loaded: return "loaded";
    case ArtifactStatus::Missing: return "missing";
    case ArtifactStatus::BadHeader: return "bad_header";
    case ArtifactStatus::KeyMismatch: return "key_mismatch";
    case ArtifactStatus::LengthMismatch: return "length_mismatch";
    case ArtifactStatus::DigestMismatch: return "digest_mismatch";
    case ArtifactStatus::LayoutMismatch: return "layout_mismatch";
    }
    return "unknown";
}

std::vector<uint8_t>
encodeArtifact(const std::string &key, Network &net)
{
    const std::vector<uint8_t> payload = net.save();
    std::vector<uint8_t> out;
    put(out, kArtifactMagic);
    put(out, static_cast<uint32_t>(key.size()));
    out.insert(out.end(), key.begin(), key.end());
    put(out, static_cast<uint64_t>(payload.size()));
    put(out, fnv1a64(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

ArtifactStatus
loadArtifact(ArtifactView artifact, const std::string &key, Network &net)
{
    if (artifact.data == nullptr)
        return ArtifactStatus::Missing;
    Header header;
    if (!readHeader(artifact, header))
        return ArtifactStatus::BadHeader;
    if (header.key != key)
        return ArtifactStatus::KeyMismatch;
    const uint8_t *payload = artifact.data + header.payloadAt;
    if (header.payloadSize != artifact.size - header.payloadAt)
        return ArtifactStatus::LengthMismatch;
    if (fnv1a64(payload, header.payloadSize) != header.digest)
        return ArtifactStatus::DigestMismatch;
    if (!net.load(payload, header.payloadSize))
        return ArtifactStatus::LayoutMismatch;
    return ArtifactStatus::Loaded;
}

ArtifactView
findArtifact(const std::string &key)
{
    for (const ArtifactView &artifact : embeddedArtifacts()) {
        Header header;
        if (readHeader(artifact, header) && header.key == key)
            return artifact;
    }
    return {};
}

} // namespace serving
} // namespace nebula
