#include "arch/mapping.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace nebula {

long long
NetworkMapping::totalCores() const
{
    long long total = 0;
    for (const auto &m : layers)
        total += m.coresNeeded;
    return total;
}

long long
NetworkMapping::totalAcs() const
{
    long long total = 0;
    for (const auto &m : layers)
        total += m.acsNeeded;
    return total;
}

bool
NetworkMapping::anyAdc() const
{
    for (const auto &m : layers)
        if (m.needsAdc)
            return true;
    return false;
}

LayerMapper::LayerMapper(const MapperOptions &options) : options_(options)
{
}

LayerMapping
LayerMapper::mapLayer(const Layer &layer, int index) const
{
    NEBULA_ASSERT(layer.isWeightLayer(), "can only map weight layers");
    const int m = kAtomicSize;
    const int max_rf = kMaxInCoreRf;

    LayerMapping out;
    out.layerIndex = index;
    out.name = layer.name();
    out.kind = layer.kind();
    out.rf = layer.receptiveField();
    out.kernels = layer.numKernels();
    out.positions = std::max<long long>(layer.outputPositions(), 1);
    out.outputElements = layer.outputElements();
    NEBULA_ASSERT(out.rf > 0 && out.kernels > 0,
                  "layer has no geometry; run a forward pass first");

    if (out.kind == LayerKind::DwConv && out.rf <= m) {
        // Depthwise kernels occupy disjoint rows: pack several kernels
        // per AC diagonally.
        const int kernels_per_ac =
            std::max(1, std::min(m, m / out.rf));
        out.chain = 1;
        out.hierarchyLevel = 0;
        out.columnGroups =
            (out.kernels + kernels_per_ac - 1) / kernels_per_ac;
        out.acsNeeded = out.columnGroups;
        // Every kernel's Rf rows carry distinct inputs (diagonal blocks),
        // so the driven-row count is Rf per kernel.
        out.dacRowsPerEval = static_cast<long long>(out.rf) * out.kernels;
    } else if (out.rf <= max_rf) {
        // Chain 1/2/4/8/16 ACs vertically; NU hierarchy aggregates the
        // source-line currents (no ADC).
        int chain = 1;
        while (chain * m < out.rf)
            chain *= 2;
        if (!options_.morphableTiles)
            chain = kCrossbarsPerCore; // rigid full-super-tile kernels
        out.chain = chain;
        out.hierarchyLevel = chain <= 1 ? 0 : (chain <= 4 ? 1 : 2);
        out.columnGroups = (out.kernels + m - 1) / m;
        out.acsNeeded = out.columnGroups * chain;
        out.dacRowsPerEval =
            static_cast<long long>(out.rf) * out.columnGroups;
        if (!options_.nuHierarchy && chain > 1) {
            // No in-current aggregation: every chained AC's partial sum
            // is digitized and reduced digitally, every evaluation.
            out.needsAdc = true;
            out.adcConversions = out.positions *
                                 static_cast<long long>(out.kernels) *
                                 chain;
            out.ruAdditions = out.positions *
                              static_cast<long long>(out.kernels) *
                              (chain - 1);
        }
    } else {
        // Kernel spills over multiple NCs: each core contributes a
        // 16M-row slice, digitizes its partial sums (4-bit ADC) and the
        // RU tree reduces them (paper Fig. 8, dashed stages).
        out.coreSplit = (out.rf + max_rf - 1) / max_rf;
        out.chain = kCrossbarsPerCore;
        out.hierarchyLevel = 2;
        out.needsAdc = true;
        out.columnGroups = (out.kernels + m - 1) / m;
        out.acsNeeded =
            out.columnGroups * static_cast<long long>(out.chain) *
            out.coreSplit;
        out.dacRowsPerEval =
            static_cast<long long>(out.rf) * out.columnGroups;
        out.adcConversions = out.positions *
                             static_cast<long long>(out.kernels) *
                             out.coreSplit;
        out.ruAdditions = out.positions *
                          static_cast<long long>(out.kernels) *
                          (out.coreSplit - 1);
    }

    out.coresNeeded =
        (out.acsNeeded + kCrossbarsPerCore - 1) / kCrossbarsPerCore;
    out.utilization = static_cast<double>(out.rf) * out.kernels /
                      (static_cast<double>(out.acsNeeded) * m * m);
    NEBULA_ASSERT(out.utilization <= 1.0 + 1e-9, "utilization > 1 for ",
                  out.name);
    return out;
}

NetworkMapping
LayerMapper::map(const Network &net) const
{
    NetworkMapping mapping;
    for (int i = 0; i < net.numLayers(); ++i) {
        const Layer &layer = net.layer(i);
        if (layer.isWeightLayer())
            mapping.layers.push_back(mapLayer(layer, i));
    }
    return mapping;
}

} // namespace nebula
