/**
 * @file
 * Temp paths unique to the running test case.
 *
 * ctest runs every gtest case as its own process, several at once
 * under `ctest -j`, so a fixed name under testing::TempDir() is shared
 * by every case that builds it and the cases race. Build temp paths
 * here instead; tests/check_temp_paths.cmake fails the suite when a
 * test file calls TempDir() itself.
 */

#pragma once

#include <filesystem>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

namespace heb::test {

/**
 * TempDir() + "<suite>.<test>.<pid>.<tag>": a file path that no other
 * test case, and no other run of this one, uses at the same time.
 * Forked death-test children see the path their parent built.
 */
inline std::string
uniqueTempPath(const std::string &tag)
{
    const testing::TestInfo *info =
        testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info ? std::string(info->test_suite_name()) + "." +
                                  info->name()
                            : "no_test";
    for (char &c : name) {
        if (c == '/')
            c = '_'; // parameterised suite and test names
    }
    return testing::TempDir() + "heb." + name + "." +
           std::to_string(::getpid()) + "." + tag;
}

/** uniqueTempPath(@p tag), created as a fresh empty directory. */
inline std::filesystem::path
uniqueTempDir(const std::string &tag)
{
    std::filesystem::path dir = uniqueTempPath(tag);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace heb::test
