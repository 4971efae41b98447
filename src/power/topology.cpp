#include "power/topology.h"

#include "util/logging.h"

namespace heb {

const char *
topologyKindName(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::Centralized: return "centralized";
      case TopologyKind::Distributed: return "distributed";
      case TopologyKind::HebHybrid: return "heb-hybrid";
    }
    return "?";
}

const char *
hebDeploymentName(HebDeployment deployment)
{
    switch (deployment) {
      case HebDeployment::ClusterLevel: return "cluster-level";
      case HebDeployment::RackLevel: return "rack-level";
    }
    return "?";
}

Topology::Topology(TopologyKind kind, HebDeployment deployment,
                   double rated_w)
    : kind_(kind), deployment_(deployment),
      upsPath_(Converter::doubleConversionUps(rated_w)),
      inverter_(Converter::rackInverter(rated_w)),
      rectifier_(Converter::rackInverter(rated_w)),
      dcdc_(Converter::dcDcStage(rated_w))
{
    if (rated_w <= 0.0)
        fatal("Topology rated power must be positive");
}

double
Topology::utilityPathEfficiency(double load_w) const
{
    switch (kind_) {
      case TopologyKind::Centralized:
        // Online UPS: everything passes through the double
        // conversion all the time.
        return upsPath_.efficiencyAt(load_w);
      case TopologyKind::Distributed:
      case TopologyKind::HebHybrid:
        // Buffers sit off the critical path; the utility feeds the
        // servers directly (dual-corded supplies).
        return 1.0;
    }
    return 1.0;
}

double
Topology::bufferPathEfficiency(double load_w) const
{
    switch (kind_) {
      case TopologyKind::Centralized:
        return upsPath_.efficiencyAt(load_w);
      case TopologyKind::Distributed:
        // Google-style in-server battery: direct DC, only a DC/DC
        // stage.
        return dcdc_.efficiencyAt(load_w);
      case TopologyKind::HebHybrid:
        if (deployment_ == HebDeployment::ClusterLevel) {
            // Long-haul delivery needs DC->AC conversion (Fig. 8b).
            return inverter_.efficiencyAt(load_w);
        }
        // Rack level: direct DC to the server (Fig. 8c).
        return dcdc_.efficiencyAt(load_w);
    }
    return 1.0;
}

double
Topology::chargePathEfficiency(double load_w) const
{
    switch (kind_) {
      case TopologyKind::Centralized:
        return upsPath_.efficiencyAt(load_w);
      case TopologyKind::Distributed:
      case TopologyKind::HebHybrid:
        // AC source -> DC bus charging stage.
        return rectifier_.efficiencyAt(load_w);
    }
    return 1.0;
}

Converter &
Topology::bufferStage()
{
    switch (kind_) {
      case TopologyKind::Centralized:
        return upsPath_;
      case TopologyKind::Distributed:
        return dcdc_;
      case TopologyKind::HebHybrid:
        return deployment_ == HebDeployment::ClusterLevel ? inverter_
                                                          : dcdc_;
    }
    return upsPath_;
}

const Converter &
Topology::bufferStage() const
{
    return const_cast<Topology *>(this)->bufferStage();
}

void
Topology::tripBufferStage(double now_seconds,
                          double restart_delay_seconds)
{
    bufferStage().trip(now_seconds, restart_delay_seconds);
}

bool
Topology::bufferStageAvailable(double now_seconds) const
{
    return bufferStage().availableAt(now_seconds);
}

bool
Topology::supportsFineGrainedShaving() const
{
    return kind_ != TopologyKind::Centralized;
}

bool
Topology::supportsEnergySharing() const
{
    if (kind_ == TopologyKind::Distributed)
        return false; // per-server batteries cannot share energy
    if (kind_ == TopologyKind::HebHybrid)
        return deployment_ == HebDeployment::ClusterLevel;
    return true;
}

} // namespace heb
