/**
 * @file
 * Scoped-profiler and run-manifest tests: the disabled path records
 * nothing, enabled scopes accumulate per-site, the report names its
 * phases, and the manifest JSON carries the provenance fields.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/manifest.h"
#include "obs/profile.h"
#include "test_paths.h"

namespace heb {
namespace obs {
namespace {

void
timedWork(int n)
{
    HEB_PROF_SCOPE("test.profile.work");
    volatile double acc = 0.0;
    for (int i = 0; i < n * 1000; ++i)
        acc = acc + 1.0;
}

TEST(Profile, DisabledScopesRecordNothing)
{
    setProfilingEnabled(false);
    ProfileSite &site = ProfileSite::intern("test.profile.work");
    std::uint64_t calls_before = site.calls();
    timedWork(1);
    EXPECT_EQ(site.calls(), calls_before);
}

TEST(Profile, EnabledScopesAccumulate)
{
    setProfilingEnabled(true);
    ProfileSite &site = ProfileSite::intern("test.profile.work");
    site.zero();
    timedWork(5);
    timedWork(5);
    setProfilingEnabled(false);
    EXPECT_EQ(site.calls(), 2u);
}

TEST(Profile, InternDedupesByName)
{
    ProfileSite &a = ProfileSite::intern("test.profile.same");
    ProfileSite &b = ProfileSite::intern("test.profile.same");
    EXPECT_EQ(&a, &b);
}

TEST(Profile, ReportNamesActiveSites)
{
    setProfilingEnabled(true);
    timedWork(5);
    setProfilingEnabled(false);
    std::string report = profileReport();
    EXPECT_NE(report.find("test.profile.work"), std::string::npos);
    EXPECT_NE(report.find("calls"), std::string::npos);
    EXPECT_NE(report.find("total(ms)"), std::string::npos);
    // Inclusive totals of nested scopes overlap, so no share column.
    EXPECT_EQ(report.find("share(%)"), std::string::npos);

    bool found = false;
    for (const ProfileEntry &e : profileSites())
        found |= e.name == "test.profile.work" && e.calls > 0;
    EXPECT_TRUE(found);
}

TEST(Manifest, JsonCarriesProvenance)
{
    RunManifest m;
    m.tool = "unit_test";
    m.schemeName = "HEB-D";
    m.workloadName = "TS";
    m.config = {{"servers", "6"}, {"tick_seconds", "1.0"}};
    m.seed = 42;
    m.wallSeconds = 1.5;
    m.startedAtIso = "2026-01-01T00:00:00Z";
    m.includeMetrics = false;

    std::string json = manifestToJson(m);
    EXPECT_NE(json.find("\"tool\": \"unit_test\""),
              std::string::npos);
    EXPECT_NE(json.find("\"scheme\": \"HEB-D\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"TS\""), std::string::npos);
    EXPECT_NE(json.find("\"git\""), std::string::npos);
    EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"servers\": \"6\""), std::string::npos);
    EXPECT_NE(json.find("\"started_at\": \"2026-01-01T00:00:00Z\""),
              std::string::npos);
    EXPECT_EQ(json.find("\"metrics\""), std::string::npos)
        << "includeMetrics=false must omit the registry dump";

    RunManifest with_metrics = m;
    with_metrics.includeMetrics = true;
    EXPECT_NE(manifestToJson(with_metrics).find("\"metrics\""),
              std::string::npos);
}

TEST(Manifest, WriteProducesReadableFile)
{
    RunManifest m;
    m.tool = "unit_test";
    m.includeMetrics = false;
    std::string path = test::uniqueTempPath("manifest.json");
    writeRunManifest(path, m);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string json = ss.str();
    EXPECT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');

    long depth = 0;
    for (char ch : json) {
        if (ch == '{')
            ++depth;
        if (ch == '}')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    std::remove(path.c_str());
}

TEST(Manifest, GitDescribeIsBakedIn)
{
    ASSERT_NE(gitDescribe(), nullptr);
    EXPECT_GT(std::string(gitDescribe()).size(), 0u);
}

} // namespace
} // namespace obs
} // namespace heb
