#include "sim/simulator.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "sim/fleet.h"

namespace heb {

Simulator::Simulator(SimConfig config) : config_(std::move(config))
{
    config_.validate();
}

SimResult
Simulator::run(const Workload &workload, ManagementScheme &scheme)
{
    return run(workload, scheme, CheckpointOptions{});
}

SimResult
Simulator::run(const Workload &workload, ManagementScheme &scheme,
               const CheckpointOptions &ckpt)
{
    HEB_PROF_SCOPE("sim.run");
    FleetOptions options;
    options.mode =
        config_.fastForward ? FleetMode::Event : FleetMode::Dense;
    FleetSimulator fleet(config_, config_.budgetW, options);
    FleetResult result =
        fleet.run({RackSpec{"rack0", &workload, &scheme}}, ckpt);
    obs::MetricsRegistry::global().counter("sim.runs_total").inc();
    return std::move(result.racks[0]);
}

} // namespace heb
