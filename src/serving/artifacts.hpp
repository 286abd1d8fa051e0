/**
 * @file
 * Servable weight artifacts: trained float prototypes shipped inside
 * the library, so a serving process maps weights instead of training
 * them (the paper trains offline and only programs the chip).
 *
 * An artifact is a header followed by the network's NEB1 bytes
 * (Network::save):
 *
 *     u32 magic "NEBA" | u32 key length | key bytes
 *     u64 payload length | u64 FNV-1a digest of the payload | payload
 *
 * The key is the loader's full training key (trainingKey in
 * serving/models.hpp), stored in full rather than as a hash. Files
 * under src/serving/artifacts/ are compiled into the library at build
 * time (src/CMakeLists.txt), so there is no runtime path to configure.
 */

#ifndef NEBULA_SERVING_ARTIFACTS_HPP
#define NEBULA_SERVING_ARTIFACTS_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/network.hpp"

namespace nebula {
namespace serving {

/** Non-owning view of one artifact's bytes; empty when there is none. */
struct ArtifactView
{
    const uint8_t *data = nullptr;
    size_t size = 0;
};

/** Outcome of verifying an artifact; anything but Loaded is refused. */
enum class ArtifactStatus
{
    Loaded,         //!< every check passed; the weights are loaded
    Missing,        //!< no artifact was offered
    BadHeader,      //!< magic or header fields unreadable
    KeyMismatch,    //!< the header names a different training key
    LengthMismatch, //!< payload shorter or longer than the header says
    DigestMismatch, //!< payload bytes do not match the header digest
    LayoutMismatch, //!< Network::load refused the layer or tensor sizes
};

const char *toString(ArtifactStatus status);

/** Artifact bytes holding @p net's weights under @p key. */
std::vector<uint8_t> encodeArtifact(const std::string &key, Network &net);

/**
 * Verify @p artifact against @p key -- header key, payload length,
 * digest, then Network::load's layer and size checks -- and load its
 * weights into @p net, which must already have the servable's
 * topology. @p net is untouched unless the result is Loaded.
 */
ArtifactStatus loadArtifact(ArtifactView artifact, const std::string &key,
                            Network &net);

/** The artifacts compiled into the library. */
std::span<const ArtifactView> embeddedArtifacts();

/** The embedded artifact whose header carries exactly @p key, or an
 *  empty view. */
ArtifactView findArtifact(const std::string &key);

} // namespace serving
} // namespace nebula

#endif // NEBULA_SERVING_ARTIFACTS_HPP
