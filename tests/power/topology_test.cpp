/** @file Delivery-architecture efficiency model (paper Fig. 7/8). */

#include <gtest/gtest.h>

#include "power/topology.h"

namespace heb {
namespace {

TEST(Topology, CentralizedAlwaysPaysDoubleConversion)
{
    Topology t(TopologyKind::Centralized, HebDeployment::ClusterLevel,
               1000.0);
    EXPECT_LT(t.utilityPathEfficiency(500.0), 0.96);
    EXPECT_LT(t.bufferPathEfficiency(500.0), 0.96);
}

TEST(Topology, DistributedUtilityPathIsFree)
{
    Topology t(TopologyKind::Distributed, HebDeployment::RackLevel,
               1000.0);
    EXPECT_DOUBLE_EQ(t.utilityPathEfficiency(500.0), 1.0);
}

TEST(Topology, HebRackLevelBeatsClusterLevelOnBufferPath)
{
    Topology rack(TopologyKind::HebHybrid, HebDeployment::RackLevel,
                  1000.0);
    Topology cluster(TopologyKind::HebHybrid,
                     HebDeployment::ClusterLevel, 1000.0);
    EXPECT_GT(rack.bufferPathEfficiency(500.0),
              cluster.bufferPathEfficiency(500.0));
}

TEST(Topology, HebBufferPathBeatsCentralized)
{
    Topology heb(TopologyKind::HebHybrid, HebDeployment::RackLevel,
                 1000.0);
    Topology central(TopologyKind::Centralized,
                     HebDeployment::RackLevel, 1000.0);
    EXPECT_GT(heb.bufferPathEfficiency(500.0),
              central.bufferPathEfficiency(500.0));
}

TEST(Topology, FineGrainedShavingSupport)
{
    Topology central(TopologyKind::Centralized,
                     HebDeployment::RackLevel, 1000.0);
    Topology heb(TopologyKind::HebHybrid, HebDeployment::RackLevel,
                 1000.0);
    EXPECT_FALSE(central.supportsFineGrainedShaving());
    EXPECT_TRUE(heb.supportsFineGrainedShaving());
}

TEST(Topology, BufferStageTripGatesAvailability)
{
    Topology t(TopologyKind::HebHybrid, HebDeployment::RackLevel,
               1000.0);
    EXPECT_TRUE(t.bufferStageAvailable(0.0));
    t.tripBufferStage(50.0, 120.0);
    EXPECT_FALSE(t.bufferStageAvailable(100.0));
    EXPECT_TRUE(t.bufferStageAvailable(170.0));
}

TEST(Topology, BufferStageTripPerKind)
{
    // Every delivery architecture exposes a trippable buffer stage.
    for (TopologyKind kind :
         {TopologyKind::Centralized, TopologyKind::Distributed,
          TopologyKind::HebHybrid}) {
        Topology t(kind, HebDeployment::ClusterLevel, 1000.0);
        t.tripBufferStage(0.0, 60.0);
        EXPECT_FALSE(t.bufferStageAvailable(30.0));
        EXPECT_TRUE(t.bufferStageAvailable(60.0));
    }
}

TEST(Topology, EnergySharingMatrix)
{
    // Per-server batteries cannot share; rack-level HEB pools are
    // local; cluster-level HEB shares.
    Topology distributed(TopologyKind::Distributed,
                         HebDeployment::RackLevel, 1000.0);
    Topology heb_rack(TopologyKind::HebHybrid,
                      HebDeployment::RackLevel, 1000.0);
    Topology heb_cluster(TopologyKind::HebHybrid,
                         HebDeployment::ClusterLevel, 1000.0);
    EXPECT_FALSE(distributed.supportsEnergySharing());
    EXPECT_FALSE(heb_rack.supportsEnergySharing());
    EXPECT_TRUE(heb_cluster.supportsEnergySharing());
}

TEST(Topology, ChargePathLossy)
{
    Topology t(TopologyKind::HebHybrid, HebDeployment::RackLevel,
               1000.0);
    double eff = t.chargePathEfficiency(200.0);
    EXPECT_GT(eff, 0.85);
    EXPECT_LT(eff, 1.0);
}

TEST(Topology, Names)
{
    EXPECT_STREQ(topologyKindName(TopologyKind::HebHybrid),
                 "heb-hybrid");
    EXPECT_STREQ(hebDeploymentName(HebDeployment::RackLevel),
                 "rack-level");
}

TEST(Topology, InvalidRatedPower)
{
    EXPECT_EXIT(Topology(TopologyKind::HebHybrid,
                         HebDeployment::RackLevel, 0.0),
                testing::ExitedWithCode(1), "rated");
}

} // namespace
} // namespace heb
