# Fails when a src/ header is reached only by its own .cpp or by
# tests. Such a module is code no program runs; delete it rather than
# keep it alive through its own test. Includers are the files under
# src/, tools/, bench/, examples/ and perfbench/.
#
#   cmake -DREPO_DIR=<repo> -P tests/check_src_includers.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT REPO_DIR)
    message(FATAL_ERROR "check_src_includers: set -DREPO_DIR")
endif()

set(includers "")
foreach(dir src tools bench examples perfbench)
    file(GLOB_RECURSE found
        ${REPO_DIR}/${dir}/*.cpp ${REPO_DIR}/${dir}/*.h)
    list(APPEND includers ${found})
endforeach()

# Every header some includer names, except a .cpp naming its own
# header (src/esd/battery.cpp including "esd/battery.h").
set(reached "")
foreach(src IN LISTS includers)
    file(RELATIVE_PATH rel ${REPO_DIR}/src ${src})
    string(REGEX REPLACE "\\.cpp$" ".h" own_header "${rel}")
    file(STRINGS ${src} lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
    foreach(line IN LISTS lines)
        string(REGEX REPLACE ".*include[ \t]*\"([^\"]+)\".*" "\\1"
            header "${line}")
        if(NOT header STREQUAL own_header)
            list(APPEND reached ${header})
        endif()
    endforeach()
endforeach()

file(GLOB_RECURSE headers RELATIVE ${REPO_DIR}/src ${REPO_DIR}/src/*.h)
set(offenders "")
foreach(header IN LISTS headers)
    if(NOT header IN_LIST reached)
        string(APPEND offenders "\n  src/${header}")
    endif()
endforeach()

if(offenders)
    message(FATAL_ERROR
        "src/ headers with no includer outside tests/ and their own "
        ".cpp (delete the module or use it):${offenders}")
endif()
list(LENGTH headers n)
message(STATUS "check_src_includers: all ${n} src/ headers have an includer")
