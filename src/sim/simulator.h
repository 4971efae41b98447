/**
 * @file
 * Full-system simulator for one rack.
 *
 * Plays the role of the physical prototype (paper Fig. 11): servers
 * draw power according to a workload, the upstream source offers a
 * budget (utility) or a solar trace, the HebController decides the
 * per-slot buffer split, and the dispatch layer moves energy through
 * the SC and battery banks. A tick is one power sample (1 s); a slot
 * is one control interval (10 min).
 *
 * A run is a one-rack FleetSimulator run (Static policy; the event
 * engine when SimConfig::fastForward is set), so the single rack and
 * the fleet share one run loop, one supply model and one checkpoint
 * format.
 */

#pragma once

#include "core/scheme.h"
#include "sim/checkpoint.h"
#include "sim/sim_config.h"
#include "sim/sim_result.h"
#include "workload/workload.h"

namespace heb {

/** One full-system simulation run. */
class Simulator
{
  public:
    /** Construct with a configuration (copied). */
    explicit Simulator(SimConfig config);

    /**
     * Run @p workload under @p scheme for the configured duration.
     * Fresh banks and servers are built per run, so a Simulator can
     * execute many runs independently.
     */
    SimResult run(const Workload &workload, ManagementScheme &scheme);

    /**
     * As run(), with periodic checkpointing and/or resume per
     * @p ckpt, in the fleet format ("fleet-<tick>.ckpt" plus
     * "fleet-<tick>-rack0.ckpt"). Checkpoints are written at tick
     * boundaries and mutate nothing, so the final SimResult is
     * byte-identical at %.17g whether or not checkpointing (or a
     * kill-and-resume cycle) happened along the way. Resume requires
     * a Simulator configured identically to the checkpointed run
     * (guard fields are verified; mismatch is fatal).
     */
    SimResult run(const Workload &workload, ManagementScheme &scheme,
                  const CheckpointOptions &ckpt);

    /** Configuration in use. */
    const SimConfig &config() const { return config_; }

  private:
    SimConfig config_;
};

} // namespace heb
