/**
 * @file
 * Two-way relay connecting one server to an energy-buffer branch.
 *
 * The prototype (paper Fig. 11) wires each server through a two-way
 * relay that selects between the battery branch and the SC branch.
 * The simulator keeps what a run reports from it: the actuation count
 * and the share of the rated mechanical life it has used.
 */

#pragma once

#include <cstdint>

namespace heb {

/** The branch a power switch currently feeds from. */
enum class SwitchFeed { Utility, Battery, Supercap };

/** One two-way relay. */
class PowerSwitch
{
  public:
    /** Rated mechanical actuations. */
    static constexpr std::uint64_t kRatedActuations = 1000000;

    /**
     * Command the relay to @p feed. A no-op when already on that
     * feed (no actuation counted).
     */
    void
    command(SwitchFeed feed)
    {
        if (feed == target_)
            return;
        target_ = feed;
        ++actuations_;
    }

    /** The commanded feed. */
    SwitchFeed commandedFeed() const { return target_; }

    /** Total actuations so far. */
    std::uint64_t actuations() const { return actuations_; }

    /** Fraction of rated actuation life consumed. */
    double wearFraction() const;

    /** Complete mutable state, for checkpointing. */
    struct State
    {
        SwitchFeed target = SwitchFeed::Utility;
        std::uint64_t actuations = 0;
    };

    /** Snapshot the relay state. */
    State state() const { return {target_, actuations_}; }

    /** Restore a state previously read with state(). */
    void restoreState(const State &state)
    {
        target_ = state.target;
        actuations_ = state.actuations;
    }

  private:
    SwitchFeed target_ = SwitchFeed::Utility;
    std::uint64_t actuations_ = 0;
};

} // namespace heb
