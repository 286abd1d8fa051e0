#include "circuit/component_db.hpp"

#include "common/logging.hpp"

namespace nebula {

ComponentDb::ComponentDb()
{
    using namespace units;
    // Rows are appended in Row order; the assert keeps the two in step.
    auto add = [&](Row row, const std::string &name,
                   const std::string &scope, long long count,
                   double power_w, double area_mm2) {
        NEBULA_ASSERT(rows_.size() == static_cast<size_t>(row),
                      "Table III row out of order: ", name);
        rows_.push_back({name, scope, count, power_w, area_mm2});
    };
    const long long drivers = kCrossbarsPerCore * kAtomicSize;

    // Neural core level (per NC).
    add(Edram, "eDRAM 32KB", "core", 1, 9.55 * mW, 0.02523);
    add(Adc, "ADC 4-bit", "core", 1, 0.43 * mW, 0.005);
    add(AnnSuperTile, "ANN Super-Tile 128KB", "core", 1, 98.87 * mW, 0.4247);
    add(SnnSuperTile, "SNN Super-Tile 128KB", "core", 1, 8.46 * mW, 0.3822);
    add(AnnInputBuffer, "ANN Input Buffer 16KB", "core", 1, 4.36 * mW,
        0.06462);
    add(SnnInputBuffer, "SNN Input Buffer 4KB", "core", 1, 1.08 * mW,
        0.01615);
    add(AnnOutputBuffer, "ANN Output Buffer 2KB", "core", 1, 0.545 * mW,
        0.00808);
    add(SnnOutputBuffer, "SNN Output Buffer 0.5KB", "core", 1, 0.136 * mW,
        0.00202);

    // Super-tile internals (all instances within one NC).
    add(AnnDac, "ANN DAC 16x128 0.75V 4-bit", "supertile", drivers,
        26.56 * mW, 0.04848);
    add(AnnCrossbar, "ANN Crossbar 16x 128x128 4b", "supertile",
        kCrossbarsPerCore, 72.16 * mW, 0.376);
    add(SnnDriver, "SNN Driver 16x128 0.25V 1-bit", "supertile", drivers,
        0.904 * mW, 0.00606);
    add(SnnCrossbar, "SNN Crossbar 16x 128x128 4b", "supertile",
        kCrossbarsPerCore, 7.4 * mW, 0.376);
    add(NeuronUnit, "Neuron Unit 23x128", "supertile",
        kNeuronUnitRows * kAtomicSize, 0.151 * mW, 0.000189);

    // Digital accumulator unit.
    add(AuAdder, "AU Adder 1024x 8-bit", "accumulator", kAccumulatorLanes,
        0.355 * mW, 0.00588);
    add(AuRegister, "AU Register 1024x 16-bit", "accumulator",
        kAccumulatorLanes, 0.545 * mW, 0.00808);

    // Chip level.
    add(AnnCoreRow, "ANN Cores", "chip", kAnnCores, 1.593, 7.392);
    add(SnnCoreRow, "SNN Cores", "chip", kSnnCores, 3.578, 78.4);
    add(Accumulators, "Accumulators", "chip", 14, 12.6 * mW, 0.937);
    NEBULA_ASSERT(rows_.size() == kRowCount, "Table III is missing rows");
}

double
ComponentDb::corePower(Mode mode) const
{
    // Paper: ANN core total 113.8 mW, SNN core total 19.66 mW; these are
    // the sums of the constituent rows.
    return edramPower() + adcPower() + superTilePower(mode) +
           inputBufferPower(mode) + outputBufferPower(mode);
}

Table
ComponentDb::toTable() const
{
    Table table("NEBULA component specifications (paper Table III)",
                {"component", "scope", "count", "power (mW)", "area (mm^2)"});
    for (const auto &row : rows_) {
        table.row()
            .add(row.name)
            .add(row.scope)
            .add(row.count)
            .add(toMw(row.power), 3)
            .add(row.area, 5);
    }
    table.row()
        .add("Core Total (ANN)")
        .add("core")
        .add(1LL)
        .add(toMw(corePower(Mode::ANN)), 3)
        .add(0.528, 5);
    table.row()
        .add("Core Total (SNN)")
        .add("core")
        .add(1LL)
        .add(toMw(corePower(Mode::SNN)), 3)
        .add(0.431, 5);
    table.row()
        .add("Chip Total")
        .add("chip")
        .add(1LL)
        .add(toMw(chipPower()), 1)
        .add(chipArea(), 3);
    return table;
}

const ComponentDb &
componentDb()
{
    static const ComponentDb db;
    return db;
}

} // namespace nebula
