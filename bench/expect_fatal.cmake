# Runs a command that must be rejected. Passes only when the command
# exits non-zero and its stderr is the one line
# "fatal: <EXPECT> (<file>:<line>)".
#
#   cmake -DEXPECT=<message> -P expect_fatal.cmake -- <command> [args...]
set(cmd "")
set(in_cmd FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(in_cmd)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(in_cmd TRUE)
    endif()
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
    ERROR_VARIABLE err)
string(FIND "${err}" "fatal: ${EXPECT} (" at)
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(rc EQUAL 0 OR NOT at EQUAL 0 OR NOT lines EQUAL 1)
    message(FATAL_ERROR "exit ${rc}, stderr:\n${err}"
        "expected a non-zero exit and one line: fatal: ${EXPECT}")
endif()
