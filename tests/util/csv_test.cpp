/** @file CSV writer/reader round trip. */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "test_paths.h"

namespace heb {
namespace {

class CsvTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = test::uniqueTempPath("table.csv");
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

TEST_F(CsvTest, RoundTrip)
{
    {
        CsvWriter w(path_);
        w.header({"a", "b", "c"});
        w.row({1.0, 2.0, 3.0});
        w.row({4.5, 5.5, 6.5});
    }
    CsvTable t = readCsv(path_);
    ASSERT_EQ(t.columns.size(), 3u);
    ASSERT_EQ(t.rows.size(), 2u);
    EXPECT_EQ(t.columns[1], "b");
    EXPECT_DOUBLE_EQ(t.rows[1][2], 6.5);
}

TEST_F(CsvTest, ColumnExtraction)
{
    {
        CsvWriter w(path_);
        w.header({"x", "y"});
        w.row({1.0, 10.0});
        w.row({2.0, 20.0});
    }
    CsvTable t = readCsv(path_);
    std::vector<double> y = t.column("y");
    ASSERT_EQ(y.size(), 2u);
    EXPECT_DOUBLE_EQ(y[1], 20.0);
    EXPECT_EQ(t.columnIndex("x"), 0u);
}

TEST_F(CsvTest, MissingColumnFatal)
{
    {
        CsvWriter w(path_);
        w.header({"x"});
        w.row({1.0});
    }
    CsvTable t = readCsv(path_);
    EXPECT_EXIT((void)t.column("nope"), testing::ExitedWithCode(1),
                "no column");
}

TEST_F(CsvTest, StringsRow)
{
    {
        CsvWriter w(path_);
        w.header({"k", "v"});
        w.rowStrings({"1", "2"});
    }
    CsvTable t = readCsv(path_);
    EXPECT_DOUBLE_EQ(t.rows[0][0], 1.0);
}

TEST(Csv, MissingFileFatal)
{
    EXPECT_EXIT(readCsv("/nonexistent/heb.csv"),
                testing::ExitedWithCode(1), "cannot open");
}

TEST(Csv, WriterBadPathIsNonFatal)
{
    // An unwritable destination must not kill the process (a bad
    // --trace-out used to fatal() mid-sweep); the writer goes inert
    // instead.
    CsvWriter w("/nonexistent/heb_csv_out.csv");
    EXPECT_FALSE(w.ok());
    w.header({"a", "b"});
    w.row({1.0, 2.0});
    w.rowStrings({"x", "y"});
    EXPECT_FALSE(w.ok());
    EXPECT_EQ(w.path(), "/nonexistent/heb_csv_out.csv");
}

TEST_F(CsvTest, WriterReportsOkOnGoodPath)
{
    CsvWriter w(path_);
    EXPECT_TRUE(w.ok());
    w.header({"a"});
    w.row({1.0});
    EXPECT_TRUE(w.ok());
}

} // namespace
} // namespace heb
