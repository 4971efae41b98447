# Runs one command-line tool in a fresh directory and checks what it
# wrote: the SHA-256 of its stdout (saved as stdout.txt) and of each
# deterministic artifact must match a committed `sha256sum` listing,
# each artifact that holds wall times (manifests, profiles) must
# exist and parse as JSON, and each EXPECT item `file:a.b=value`
# requires the JSON string or number at member path a.b of file to
# read `value`.
#
#   cmake -DTOOL=<exe> -DWORK_DIR=<dir> -DARGS=<a|b|...>
#         [-DDIGESTS=<file.sha256>] [-DPARSE=<x.json|...>]
#         [-DEXPECT=<x.json:a.b=value|...>]
#         -P tests/check_cli_pins.cmake
#
# ARGS, PARSE and EXPECT separate their items with `|`. To re-pin
# after an intended output change, run the tool as ARGS says and
# replace the listing with `sha256sum stdout.txt <artifacts>`.
cmake_minimum_required(VERSION 3.19)
if(NOT TOOL OR NOT WORK_DIR)
    message(FATAL_ERROR "check_cli_pins: set -DTOOL and -DWORK_DIR")
endif()

string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" ";" parse "${PARSE}")
string(REPLACE "|" ";" expect "${EXPECT}")

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${TOOL} ${args}
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_FILE ${WORK_DIR}/stdout.txt
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TOOL} ${args} exited with ${rc}")
endif()

set(failures "")
if(DIGESTS)
    file(STRINGS ${DIGESTS} lines)
    foreach(line IN LISTS lines)
        if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
            message(FATAL_ERROR "malformed line in ${DIGESTS}: ${line}")
        endif()
        set(want ${CMAKE_MATCH_1})
        set(name ${CMAKE_MATCH_2})
        if(NOT EXISTS ${WORK_DIR}/${name})
            string(APPEND failures "\n  ${name}: not written")
            continue()
        endif()
        file(SHA256 ${WORK_DIR}/${name} got)
        if(NOT got STREQUAL want)
            string(APPEND failures
                "\n  ${name}: sha256 ${got}, pinned ${want}")
        endif()
    endforeach()
endif()

foreach(name IN LISTS parse)
    if(NOT EXISTS ${WORK_DIR}/${name})
        string(APPEND failures "\n  ${name}: not written")
        continue()
    endif()
    file(READ ${WORK_DIR}/${name} text)
    string(JSON type ERROR_VARIABLE err TYPE "${text}")
    if(err)
        string(APPEND failures "\n  ${name}: not JSON (${err})")
    endif()
endforeach()

foreach(item IN LISTS expect)
    if(NOT item MATCHES "^([^:]+):([^=]+)=(.*)$")
        message(FATAL_ERROR "malformed EXPECT item: ${item}")
    endif()
    set(name ${CMAKE_MATCH_1})
    string(REPLACE "." ";" path "${CMAKE_MATCH_2}")
    set(want "${CMAKE_MATCH_3}")
    if(NOT EXISTS ${WORK_DIR}/${name})
        string(APPEND failures "\n  ${name}: not written")
        continue()
    endif()
    file(READ ${WORK_DIR}/${name} text)
    string(JSON got ERROR_VARIABLE err GET "${text}" ${path})
    if(err)
        string(APPEND failures "\n  ${name}: ${CMAKE_MATCH_2}: ${err}")
    elseif(NOT got STREQUAL want)
        string(APPEND failures
            "\n  ${name}: ${CMAKE_MATCH_2} is '${got}', want '${want}'")
    endif()
endforeach()

if(failures)
    message(FATAL_ERROR "${TOOL} ${args} in ${WORK_DIR}:${failures}")
endif()
message(STATUS "check_cli_pins: outputs of ${TOOL} match their pins")
