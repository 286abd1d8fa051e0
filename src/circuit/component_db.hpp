/**
 * @file
 * Component power/area database transcribed from the paper's Table III
 * ("Component Specifications for NEBULA"). Every architectural energy
 * and power number in the benchmark harness is derived from these
 * values, the fixed parameters of common/chip_params.hpp and activity
 * counts, exactly as the paper's analytical model does.
 *
 * Power values are average operating power of the component when active;
 * energies are derived as power * cycle time unless a per-op energy is
 * listed. The pipeline stage (cycle) is 110 ns (Sec. IV-B5); digital
 * components run at 1.2 GHz within a stage.
 */

#ifndef NEBULA_CIRCUIT_COMPONENT_DB_HPP
#define NEBULA_CIRCUIT_COMPONENT_DB_HPP

#include <string>
#include <vector>

#include "common/chip_params.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace nebula {

/** One row of Table III. */
struct ComponentSpec
{
    std::string name;      //!< component name as in the paper
    std::string scope;     //!< "core", "supertile", "accumulator", "chip"
    long long count = 1;   //!< instances within the scope
    double power = 0.0;    //!< active power of the whole row (W)
    double area = 0.0;     //!< area of the whole row (mm^2)
};

/** Operating mode of a neural core. */
enum class Mode { ANN, SNN };

/**
 * The NEBULA component database (paper Table III). The rows are its
 * only copy of the paper's powers; the pricing accessors read them.
 */
class ComponentDb
{
  public:
    /** Table III rows, in the paper's order. */
    enum Row {
        Edram,
        Adc,
        AnnSuperTile,
        SnnSuperTile,
        AnnInputBuffer,
        SnnInputBuffer,
        AnnOutputBuffer,
        SnnOutputBuffer,
        AnnDac,
        AnnCrossbar,
        SnnDriver,
        SnnCrossbar,
        NeuronUnit,
        AuAdder,
        AuRegister,
        AnnCoreRow,
        SnnCoreRow,
        Accumulators,
        kRowCount
    };

    ComponentDb();

    // -- Neural-core level (power in W, per single NC) -------------------

    double edramPower() const { return power(Edram); }
    double adcPower() const { return power(Adc); }
    double superTilePower(Mode mode) const
    {
        return power(mode == Mode::ANN ? AnnSuperTile : SnnSuperTile);
    }
    double inputBufferPower(Mode mode) const
    {
        return power(mode == Mode::ANN ? AnnInputBuffer : SnnInputBuffer);
    }
    double outputBufferPower(Mode mode) const
    {
        return power(mode == Mode::ANN ? AnnOutputBuffer : SnnOutputBuffer);
    }
    double corePower(Mode mode) const;

    // -- Super-tile internals (power of all instances in one NC) ---------

    /** ANN DAC drivers (16 x 128 @ 0.75 V, 4-bit). */
    double annDacPower() const { return power(AnnDac); }
    /** SNN spike drivers (16 x 128 @ 0.25 V, 1-bit). */
    double snnDriverPower() const { return power(SnnDriver); }
    /** All 16 crossbars of one NC. */
    double crossbarPower(Mode mode) const
    {
        return power(mode == Mode::ANN ? AnnCrossbar : SnnCrossbar);
    }
    /** All 23 x 128 neuron units of one NC. */
    double neuronUnitPower() const { return power(NeuronUnit); }

    // -- Accumulator unit -------------------------------------------------

    double accumulatorAdderPower() const { return power(AuAdder); }
    double accumulatorRegisterPower() const { return power(AuRegister); }
    /**
     * One AU (adders + registers). Kept as its own literal: the row sum
     * and the Accumulators row's 12.6 mW / 14 both round to 0.0009 W,
     * one ulp below the value every energy figure was computed with.
     */
    double accumulatorPower() const { return 0.9 * units::mW; }

    // -- Chip level --------------------------------------------------------

    double chipPower() const { return 5.2 * units::watt; }
    double chipArea() const { return 86.729; } // mm^2

    /** All Table III rows (for the Table III regeneration bench). */
    const std::vector<ComponentSpec> &rows() const { return rows_; }

    /** Render the database in the shape of the paper's Table III. */
    Table toTable() const;

  private:
    double power(Row row) const { return rows_[row].power; }

    std::vector<ComponentSpec> rows_;
};

/** Singleton accessor (the DB is immutable). */
const ComponentDb &componentDb();

} // namespace nebula

#endif // NEBULA_CIRCUIT_COMPONENT_DB_HPP
