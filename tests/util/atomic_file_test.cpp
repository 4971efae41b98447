#include "util/atomic_file.h"
#include "test_paths.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace heb {
namespace {

namespace fs = std::filesystem;

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(AtomicFile, WritesNewFile)
{
    fs::path dir = test::uniqueTempDir("dir");
    std::string path = (dir / "out.txt").string();

    ASSERT_TRUE(writeFileAtomic(path, "hello\nworld\n"));
    EXPECT_EQ(readAll(path), "hello\nworld\n");
}

TEST(AtomicFile, ReplacesExistingFileCompletely)
{
    fs::path dir = test::uniqueTempDir("dir");
    std::string path = (dir / "out.txt").string();

    ASSERT_TRUE(writeFileAtomic(
        path, "a much longer first version of the content\n"));
    ASSERT_TRUE(writeFileAtomic(path, "short\n"));
    // Full replacement: no tail of the longer predecessor survives.
    EXPECT_EQ(readAll(path), "short\n");
}

TEST(AtomicFile, LeavesNoTemporaryBehind)
{
    fs::path dir = test::uniqueTempDir("dir");
    std::string path = (dir / "out.txt").string();

    ASSERT_TRUE(writeFileAtomic(path, "payload"));
    std::size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST(AtomicFile, FailsCleanlyWhenDirectoryMissing)
{
    fs::path dir = test::uniqueTempPath("missing");
    fs::remove_all(dir);
    std::string path = (dir / "sub" / "out.txt").string();

    EXPECT_FALSE(writeFileAtomic(path, "payload"));
    EXPECT_FALSE(fs::exists(path));
}

TEST(AtomicFile, HandlesEmptyAndBinaryContent)
{
    fs::path dir = test::uniqueTempDir("dir");

    std::string empty_path = (dir / "empty").string();
    ASSERT_TRUE(writeFileAtomic(empty_path, ""));
    EXPECT_EQ(readAll(empty_path), "");

    std::string bin_path = (dir / "bin").string();
    std::string payload("\x00\x01\xff\n\x00mid-null", 12);
    ASSERT_TRUE(writeFileAtomic(bin_path, payload));
    EXPECT_EQ(readAll(bin_path), payload);
}

} // namespace
} // namespace heb
