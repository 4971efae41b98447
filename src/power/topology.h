/**
 * @file
 * Energy-storage system topologies (paper Fig. 7 / Fig. 8).
 *
 * Three architectures compete:
 *
 *  - Centralized: a double-converting online UPS sits on the critical
 *    path between ATS and PDUs. Whole-datacenter granularity, 4-10 %
 *    standing conversion loss, hard to scale out.
 *  - Distributed: rack/server-level batteries (Facebook cabinet /
 *    Google per-server). Fine granularity, but homogeneous batteries.
 *  - HebHybrid: the paper's contribution — per-group battery + SC
 *    pools behind per-server two-way switches, deployable at cluster
 *    level (needs DC/AC conversion) or rack level (direct DC).
 *
 * The Topology object answers one question for the simulator: what
 * fraction of a watt sourced at a given stage reaches the server?
 */

#pragma once

#include <string>

#include "power/converter.h"

namespace heb {

/** Architecture selector. */
enum class TopologyKind { Centralized, Distributed, HebHybrid };

/** Deployment granularity for the HEB architecture (Fig. 8b/8c). */
enum class HebDeployment { ClusterLevel, RackLevel };

/** Render helpers for logs/tables. */
const char *topologyKindName(TopologyKind kind);
const char *hebDeploymentName(HebDeployment deployment);

/** Power-delivery path model for one architecture. */
class Topology
{
  public:
    /**
     * Construct the delivery model.
     *
     * @param kind        Architecture.
     * @param deployment  Granularity (only meaningful for HebHybrid).
     * @param rated_w     Rated power for the conversion stages.
     */
    Topology(TopologyKind kind, HebDeployment deployment,
             double rated_w);

    /** Architecture. */
    TopologyKind kind() const { return kind_; }

    /** Granularity. */
    HebDeployment deployment() const { return deployment_; }

    /**
     * Efficiency of the utility -> server path when the buffer is
     * *not* in the loop (normal operation).
     */
    double utilityPathEfficiency(double load_w) const;

    /**
     * Efficiency of the buffer -> server path during peak shaving.
     */
    double bufferPathEfficiency(double load_w) const;

    /**
     * Efficiency of the source -> buffer charging path.
     */
    double chargePathEfficiency(double load_w) const;

    /** True when buffers can be dispatched per server group. */
    bool supportsFineGrainedShaving() const;

    /** True when the pools are shared across the whole domain. */
    bool supportsEnergySharing() const;

    /**
     * Fault hook: trip the converter stage on this architecture's
     * buffer discharge path (UPS, inverter, or DC/DC) offline until
     * @p restart_delay_seconds after @p now_seconds. While down the
     * buffers can neither discharge nor charge through it.
     */
    void tripBufferStage(double now_seconds,
                         double restart_delay_seconds);

    /** True when the buffer-path converter is up at @p now_seconds. */
    bool bufferStageAvailable(double now_seconds) const;

    /**
     * When the buffer-path converter's latest trip restores (s);
     * bufferStageAvailable() flips exactly here. An event horizon
     * for the fast-forward engine.
     */
    double bufferStageRestoreTime() const
    {
        return bufferStage().restoreTime();
    }

    /**
     * Restore bufferStageRestoreTime() from a checkpoint — the
     * topology's only mutable state, since only the buffer stage
     * trips.
     */
    void setBufferStageRestoreTime(double seconds)
    {
        bufferStage().setRestoreTime(seconds);
    }

  private:
    /** The converter carrying buffer discharge for this topology. */
    Converter &bufferStage();
    const Converter &bufferStage() const;

    TopologyKind kind_;
    HebDeployment deployment_;
    Converter upsPath_;     //!< centralized online UPS stage
    Converter inverter_;    //!< DC->AC stage (cluster-level HEB)
    Converter rectifier_;   //!< AC->DC charging stage
    Converter dcdc_;        //!< DC->DC rack-level stage
};

} // namespace heb
