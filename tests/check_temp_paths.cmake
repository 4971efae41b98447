# Fails when a test file builds a fixed temp name. ctest runs every
# gtest case as its own process, in parallel under `ctest -j`, so a
# name shared by two cases makes them race. Temp paths come from
# tests/test_paths.h, which adds the suite, test name and pid.
#
#   cmake -DTESTS_DIR=<repo>/tests -P tests/check_temp_paths.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT TESTS_DIR)
    message(FATAL_ERROR "check_temp_paths: set -DTESTS_DIR")
endif()

file(GLOB_RECURSE sources
    ${TESTS_DIR}/*.cpp ${TESTS_DIR}/*.h ${TESTS_DIR}/*.hpp)
set(offenders "")
foreach(src IN LISTS sources)
    get_filename_component(name ${src} NAME)
    if(name STREQUAL "test_paths.h")
        continue()
    endif()
    # testing::TempDir() itself (uniqueTempDir does not match) or a
    # literal /tmp path.
    file(READ ${src} text)
    string(REGEX MATCHALL "(^|[^A-Za-z_])TempDir[ ]*\\(|/tmp[/\"]"
        hits "${text}")
    list(LENGTH hits n_hits)
    if(n_hits GREATER 0)
        string(APPEND offenders "\n  ${src}: ${n_hits} fixed temp path(s)")
    endif()
endforeach()

if(offenders)
    message(FATAL_ERROR
        "fixed temp paths in tests (use heb::test::uniqueTempPath or "
        "uniqueTempDir from tests/test_paths.h):${offenders}")
endif()
list(LENGTH sources n)
message(STATUS "check_temp_paths: ${n} test files, no fixed temp paths")
