/** @file The six Table 2 schemes' planning behaviour. */

#include <gtest/gtest.h>

#include "core/schemes.h"

namespace heb {
namespace {

SlotSensors
typicalSensors()
{
    SlotSensors s;
    s.scUsableWh = 28.8;
    s.baUsableWh = 53.0;
    s.scMaxPowerW = 400.0;
    s.baMaxPowerW = 70.0;
    s.lastSlotPeakW = 400.0;
    s.lastSlotValleyW = 220.0;
    s.budgetW = 260.0;
    s.slotSeconds = 600.0;
    return s;
}

TEST(Schemes, FactoryNames)
{
    for (SchemeKind kind : allSchemeKinds()) {
        auto scheme = makeScheme(kind);
        EXPECT_EQ(scheme->name(), schemeKindName(kind));
    }
    EXPECT_EQ(allSchemeKinds().size(), 6u);
}

TEST(Schemes, BaOnlyIsHomogeneous)
{
    auto s = makeScheme(SchemeKind::BaOnly);
    EXPECT_FALSE(s->usesHybridBuffers());
    SlotPlan plan = s->planSlot(typicalSensors());
    EXPECT_DOUBLE_EQ(plan.rLambda, 0.0);
    EXPECT_FALSE(plan.chargeScFirst);
}

TEST(Schemes, BaFirstPlansBatteryLead)
{
    auto s = makeScheme(SchemeKind::BaFirst);
    EXPECT_TRUE(s->usesHybridBuffers());
    SlotPlan plan = s->planSlot(typicalSensors());
    EXPECT_DOUBLE_EQ(plan.rLambda, 0.0);
    EXPECT_FALSE(plan.chargeScFirst);
    EXPECT_LE(plan.batteryBasePlanW, 0.0); // proportional dispatch
}

TEST(Schemes, ScFirstPlansScLead)
{
    auto s = makeScheme(SchemeKind::ScFirst);
    SlotPlan plan = s->planSlot(typicalSensors());
    EXPECT_DOUBLE_EQ(plan.rLambda, 1.0);
    EXPECT_TRUE(plan.chargeScFirst);
}

TEST(Schemes, HebSmallPeakGoesAllSc)
{
    auto s = makeScheme(SchemeKind::HebD);
    SlotSensors sensors = typicalSensors();
    sensors.lastSlotPeakW = 280.0;
    sensors.lastSlotValleyW = 240.0; // PM 40 < 60 threshold
    SlotPlan plan = s->planSlot(sensors);
    EXPECT_EQ(plan.predictedClass, PeakClass::Small);
    EXPECT_DOUBLE_EQ(plan.rLambda, 1.0);
    EXPECT_TRUE(plan.chargeScFirst);
}

TEST(Schemes, HebLargePeakUsesJointDispatch)
{
    auto s = makeScheme(SchemeKind::HebD);
    SlotPlan plan = s->planSlot(typicalSensors()); // PM 180
    EXPECT_EQ(plan.predictedClass, PeakClass::Large);
    EXPECT_GT(plan.batteryBasePlanW, 0.0);
    EXPECT_GT(plan.rLambda, 0.0);
    EXPECT_LE(plan.rLambda, 1.0);
}

TEST(Schemes, HebRespectsBatteryPowerFloor)
{
    // PM far above the battery branch capability: r must stay above
    // the feasibility floor even if the table says otherwise.
    PowerAllocationTable pat;
    pat.seed(28.8, 53.0, 180.0, 0.0); // pathological seed
    HebSchemeConfig cfg;
    HebScheme s("HEB-D", cfg, pat);
    SlotPlan plan = s.planSlot(typicalSensors());
    double pm = plan.predictedMismatchW;
    double floor = (pm - typicalSensors().baMaxPowerW) / pm;
    EXPECT_GE(plan.rLambda, floor - 1e-9);
}

TEST(Schemes, HebConservativeEnvelopeUsesNaiveWhenModelCold)
{
    auto s = makeScheme(SchemeKind::HebD);
    SlotSensors sensors = typicalSensors();
    SlotPlan plan = s->planSlot(sensors);
    // Cold model: falls back to last slot's 180 W mismatch.
    EXPECT_NEAR(plan.predictedMismatchW, 180.0, 1e-9);
}

TEST(Schemes, HebLearnsFromOutcomes)
{
    HebSchemeConfig cfg;
    cfg.dynamicPatUpdates = true;
    HebScheme s("HEB-D", cfg);
    SlotSensors sensors = typicalSensors();
    SlotPlan plan = s.planSlot(sensors);

    SlotOutcome outcome;
    outcome.scStartWh = sensors.scUsableWh;
    outcome.baStartWh = sensors.baUsableWh;
    outcome.scEndWh = 10.0;
    outcome.baEndWh = 50.0;
    outcome.actualPeakW = 400.0;
    outcome.actualValleyW = 220.0;
    outcome.rLambdaUsed = plan.rLambda;
    s.finishSlot(outcome);
    EXPECT_GE(s.pat().size(), 1u);
}

TEST(Schemes, HebStaticSkipsPatUpdates)
{
    HebSchemeConfig cfg;
    cfg.dynamicPatUpdates = false;
    HebScheme s("HEB-S", cfg);
    SlotSensors sensors = typicalSensors();
    s.planSlot(sensors);
    SlotOutcome outcome;
    outcome.scStartWh = sensors.scUsableWh;
    outcome.baStartWh = sensors.baUsableWh;
    outcome.scEndWh = 5.0;
    outcome.baEndWh = 50.0;
    outcome.actualPeakW = 400.0;
    outcome.actualValleyW = 220.0;
    s.finishSlot(outcome);
    EXPECT_EQ(s.pat().size(), 0u);
}

TEST(Schemes, HebFUsesNaivePrediction)
{
    auto s = makeScheme(SchemeKind::HebF);
    auto *heb = dynamic_cast<HebScheme *>(s.get());
    ASSERT_NE(heb, nullptr);
    EXPECT_FALSE(heb->config().holtWintersPrediction);
    EXPECT_TRUE(heb->config().dynamicPatUpdates);
}

TEST(Schemes, HebSGetsCoarserGridFromSeed)
{
    HebSchemeConfig cfg;
    PowerAllocationTable seed(cfg.patGrid, cfg.deltaR);
    seed.seed(10.0, 50.0, 100.0, 0.4);
    seed.seed(15.0, 50.0, 100.0, 0.8);
    auto s = makeScheme(SchemeKind::HebS, cfg, &seed);
    auto *heb = dynamic_cast<HebScheme *>(s.get());
    ASSERT_NE(heb, nullptr);
    // Requantized onto a 4x coarser grid: the two cells merge.
    EXPECT_EQ(heb->pat().size(), 1u);
}

/** A HEB-D scheme after @p slots learning slots. */
HebScheme
trainedHeb(int slots, HebSchemeConfig cfg = {})
{
    HebScheme s("HEB-D", cfg);
    SlotSensors sensors = typicalSensors();
    for (int i = 0; i < slots; ++i) {
        SlotPlan plan = s.planSlot(sensors);
        SlotOutcome outcome;
        outcome.scStartWh = sensors.scUsableWh;
        outcome.baStartWh = sensors.baUsableWh;
        outcome.scEndWh = 10.0 + i;
        outcome.baEndWh = 50.0;
        outcome.actualPeakW = 400.0 + 3.0 * i;
        outcome.actualValleyW = 220.0;
        outcome.rLambdaUsed = plan.rLambda;
        s.finishSlot(outcome);
    }
    return s;
}

/** The flat checkpoint state of @p scheme. */
std::vector<double>
savedState(ManagementScheme &scheme)
{
    std::vector<double> out;
    StateCursor cursor(out);
    scheme.checkpoint(cursor);
    return out;
}

/** Load @p state into @p scheme as a checkpoint restore does. */
void
loadState(ManagementScheme &scheme, const std::vector<double> &state)
{
    StateCursor cursor(state, "scheme");
    scheme.checkpoint(cursor);
    cursor.finish();
}

TEST(Schemes, CheckpointRoundTripsLearnedState)
{
    HebScheme trained = trainedHeb(5);
    ASSERT_GE(trained.pat().size(), 1u);
    std::vector<double> state = savedState(trained);

    HebScheme fresh("HEB-D", HebSchemeConfig{});
    loadState(fresh, state);
    EXPECT_EQ(savedState(fresh), state);
    SlotPlan a = trained.planSlot(typicalSensors());
    SlotPlan b = fresh.planSlot(typicalSensors());
    EXPECT_EQ(a.rLambda, b.rLambda);
    EXPECT_EQ(a.predictedMismatchW, b.predictedMismatchW);
}

TEST(Schemes, CheckpointRejectsTruncatedOrTrailingState)
{
    HebScheme trained = trainedHeb(3);
    std::vector<double> state = savedState(trained);

    std::vector<double> truncated(state.begin(), state.end() - 1);
    HebScheme a("HEB-D", HebSchemeConfig{});
    EXPECT_EXIT(loadState(a, truncated), ::testing::ExitedWithCode(1),
                "truncated state while reading pat updates");

    std::vector<double> trailing = state;
    trailing.push_back(0.0);
    HebScheme b("HEB-D", HebSchemeConfig{});
    EXPECT_EXIT(loadState(b, trailing), ::testing::ExitedWithCode(1),
                "1 trailing values");
}

TEST(Schemes, CheckpointRejectsBadPatCount)
{
    // HEB-F with an empty table: the PAT entry count is the last
    // value, after the plan and two last-value predictors.
    auto scheme = makeScheme(SchemeKind::HebF);
    std::vector<double> state = savedState(*scheme);
    ASSERT_EQ(state.size(), 10u);
    for (double bad : {-1.0, 0.5}) {
        state.back() = bad;
        auto other = makeScheme(SchemeKind::HebF);
        EXPECT_EXIT(loadState(*other, state),
                    ::testing::ExitedWithCode(1),
                    "bad count for pat entry count")
            << bad;
    }
}

TEST(Schemes, CheckpointRejectsOtherSeasonLength)
{
    std::vector<double> state = savedState(*makeScheme(SchemeKind::HebD));
    HebSchemeConfig cfg;
    cfg.hwParams.seasonLength = 72;
    HebScheme shorter("HEB-D", cfg);
    EXPECT_EXIT(loadState(shorter, state), ::testing::ExitedWithCode(1),
                "seasonal length 144 does not match configured 72");
}

TEST(Schemes, PrioritySchemesIgnoreOutcomes)
{
    auto s = makeScheme(SchemeKind::ScFirst);
    SlotOutcome outcome;
    s->finishSlot(outcome); // must be a harmless no-op
    SUCCEED();
}

} // namespace
} // namespace heb
