/**
 * @file
 * Ablation of NEBULA's two key architectural choices (DESIGN.md):
 *
 *  1. Morphable tiles (paper Sec. IV-B2): adaptive 1/2/4/8/16 AC
 *     chaining vs a rigid design where every kernel occupies a full
 *     16-AC super-tile chain. Expected: the rigid design wastes
 *     crossbars and cores on small-Rf layers (MobileNet worst).
 *
 *  2. NU hierarchy (paper Sec. IV-B3): current-domain partial-sum
 *     aggregation vs digitizing every chained crossbar's partial sum
 *     (the ISAAC/INXS-style organization). Expected: the ADC-everywhere
 *     design pays a large ADC + reduction energy tax on every large-Rf
 *     layer.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"

namespace nebula {
namespace {

InferenceEnergy
evaluateWith(const MapperOptions &options, const std::string &model_name,
             long long *cores_out = nullptr)
{
    Network net = buildPaperModel(model_name);
    const int spatial = (model_name == "alexnet") ? 64 : 32;
    Tensor x({1, 3, spatial, spatial});
    net.forward(x);

    LayerMapper mapper(options);
    const auto mapping = mapper.map(net);
    if (cores_out) {
        *cores_out = 0;
        for (const auto &layer : mapping.layers)
            *cores_out += layer.coresNeeded;
    }
    EnergyModel model;
    return model.evaluateAnn(
        mapping, ActivityProfile::uniform(mapping.layers.size(), 0.5));
}

void
report()
{
    Table table("Ablation: morphable tiles and NU hierarchy (ANN mode)",
                {"model", "design", "energy (uJ)", "vs NEBULA",
                 "cores used"});

    for (const char *name : {"vgg13", "mobilenet", "alexnet"}) {
        long long cores_full = 0, cores_rigid = 0, cores_adc = 0;
        const auto full = evaluateWith({}, name, &cores_full);

        MapperOptions rigid;
        rigid.morphableTiles = false;
        const auto no_morph = evaluateWith(rigid, name, &cores_rigid);

        MapperOptions no_nu;
        no_nu.nuHierarchy = false;
        const auto adc_everywhere = evaluateWith(no_nu, name, &cores_adc);

        auto add = [&](const char *design, const InferenceEnergy &e,
                       long long cores) {
            table.row()
                .add(name)
                .add(design)
                .add(toUj(e.totalEnergy), 3)
                .add(formatRatio(e.totalEnergy / full.totalEnergy))
                .add(cores);
        };
        add("NEBULA (both on)", full, cores_full);
        add("rigid tiles", no_morph, cores_rigid);
        add("ADC per crossbar", adc_everywhere, cores_adc);
    }
    table.print(std::cout);
    std::cout << "Expected: removing the NU hierarchy costs substantial\n"
                 "ADC/reduction energy on every chained layer; removing\n"
                 "the morphable tiles wastes crossbars and neural cores\n"
                 "(area and leakage) even though read energy tracks the\n"
                 "programmed cells.\n";
}

void
BM_MapperAblation(benchmark::State &state)
{
    for (auto _ : state) {
        MapperOptions rigid;
        rigid.morphableTiles = false;
        benchmark::DoNotOptimize(
            evaluateWith(rigid, "vgg13").totalEnergy);
    }
}
BENCHMARK(BM_MapperAblation)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nebula

int
main(int argc, char **argv)
{
    nebula::report();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    nebula::bench::writeBenchSummary(argv[0]);
    return 0;
}
