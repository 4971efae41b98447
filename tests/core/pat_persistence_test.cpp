/** @file PAT save/load round trip. */

#include <cstdio>

#include <gtest/gtest.h>

#include "core/pat.h"
#include "test_paths.h"

namespace heb {
namespace {

class PatPersistenceTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = test::uniqueTempPath("pat.csv");
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

TEST_F(PatPersistenceTest, RoundTripPreservesEntries)
{
    PowerAllocationTable t;
    t.seed(30.0, 50.0, 140.0, 0.7);
    t.seed(10.0, 50.0, 160.0, 0.4);
    t.recordOutcome(30.0, 50.0, 140.0, 0.7, 25.0, 20.0); // r -> 0.71
    t.saveCsv(path_);

    PowerAllocationTable loaded =
        PowerAllocationTable::loadCsv(path_);
    EXPECT_EQ(loaded.size(), 2u);
    auto r = loaded.lookupExact(30.0, 50.0, 140.0);
    ASSERT_TRUE(r.has_value());
    EXPECT_NEAR(*r, 0.71, 1e-9);
}

TEST_F(PatPersistenceTest, UpdatesCountSurvives)
{
    PowerAllocationTable t;
    t.seed(30.0, 50.0, 140.0, 0.7);
    t.recordOutcome(30.0, 50.0, 140.0, 0.7, 25.0, 20.0);
    t.recordOutcome(30.0, 50.0, 140.0, 0.7, 25.0, 20.0);
    t.saveCsv(path_);
    PowerAllocationTable loaded =
        PowerAllocationTable::loadCsv(path_);
    EXPECT_EQ(loaded.entries()[0].updates, 2u);
}

TEST_F(PatPersistenceTest, EmptyTableRoundTrips)
{
    PowerAllocationTable t;
    t.saveCsv(path_);
    PowerAllocationTable loaded =
        PowerAllocationTable::loadCsv(path_);
    EXPECT_EQ(loaded.size(), 0u);
}

TEST_F(PatPersistenceTest, LoadedTableKeepsLearning)
{
    PowerAllocationTable t;
    t.seed(30.0, 50.0, 140.0, 0.7);
    t.saveCsv(path_);
    PowerAllocationTable loaded =
        PowerAllocationTable::loadCsv(path_);
    loaded.recordOutcome(30.0, 50.0, 140.0, 0.7, 25.0, 20.0);
    EXPECT_NEAR(*loaded.lookupExact(30.0, 50.0, 140.0), 0.71, 1e-9);
}

TEST(PatPersistence, MissingFileFatal)
{
    EXPECT_EXIT(
        PowerAllocationTable::loadCsv("/nonexistent/pat.csv"),
        testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace heb
