/**
 * @file
 * Regenerates paper Table III: component specifications (power, area,
 * counts) for the NEBULA chip, from the component database, plus the
 * derived core/chip totals the paper reports (ANN core 113.8 mW, SNN
 * core 19.66 mW, chip 5.2 W / 86.7 mm^2).
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "circuit/component_db.hpp"
#include "common/table.hpp"

#include "bench_common.hpp"

namespace nebula {
namespace {

void
report()
{
    const ComponentDb &db = componentDb();
    db.toTable().print(std::cout);

    Table derived("Derived quantities", {"quantity", "value"});
    derived.row()
        .add("pipeline stage")
        .add(formatDouble(kCycleTime / units::ns, 0) + " ns");
    derived.row()
        .add("digital clock")
        .add(formatDouble(kDigitalClock / 1e9, 1) + " GHz");
    derived.row()
        .add("ANN/SNN super-tile power ratio")
        .add(formatRatio(db.superTilePower(Mode::ANN) /
                         db.superTilePower(Mode::SNN)));
    derived.row()
        .add("ANN DAC / SNN driver power ratio")
        .add(formatRatio(db.annDacPower() / db.snnDriverPower()));
    derived.row()
        .add("max in-core receptive field (16M)")
        .add(static_cast<long long>(kMaxInCoreRf));
    derived.row()
        .add("weight/activation precision")
        .add(static_cast<long long>(kPrecisionBits));
    derived.print(std::cout);
}

void
BM_ComponentDbLookup(benchmark::State &state)
{
    for (auto _ : state) {
        const ComponentDb &db = componentDb();
        benchmark::DoNotOptimize(db.corePower(Mode::ANN) +
                                 db.corePower(Mode::SNN));
    }
}
BENCHMARK(BM_ComponentDbLookup);

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
