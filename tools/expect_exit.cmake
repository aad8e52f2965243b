# expect_exit.cmake -- ctest helper asserting an EXACT exit code.
#
# WILL_FAIL only distinguishes zero from non-zero; poptrie_fsck's contract is
# three-valued (0 clean / 1 violations / 2 usage-or-input error), so the e2e
# tests run it through this script instead:
#
#   cmake -DCMD=<prog|arg|arg...> -DEXPECT=<code> [-DEXPECT_OUTPUT=<regex>]
#         [-DWRITE_FILE=<path> -DWRITE_CONTENT=<text>]  -P expect_exit.cmake
#
# CMD uses '|' as the argument separator ('-DCMD=a;b' would be split by
# CMake's own list handling before the script ever saw it).
#
# WRITE_FILE materializes a fixture (e.g. a deliberately corrupted table
# file) before the run, keeping the corruption visible in the test definition
# rather than hidden in a checked-in binary.
#
# EXPECT_OUTPUT, when given, is a regex the command's output (stdout and
# stderr) must also match.

if(NOT DEFINED CMD OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "expect_exit.cmake needs -DCMD=... and -DEXPECT=...")
endif()

if(DEFINED WRITE_FILE)
  file(WRITE "${WRITE_FILE}" "${WRITE_CONTENT}")
endif()

string(REPLACE "|" ";" CMD "${CMD}")
if(DEFINED EXPECT_OUTPUT)
  execute_process(COMMAND ${CMD} RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
  message("${out}")
else()
  execute_process(COMMAND ${CMD} RESULT_VARIABLE code)
endif()

if(NOT code EQUAL EXPECT)
  message(FATAL_ERROR "expected exit ${EXPECT}, got '${code}' from: ${CMD}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output of ${CMD} does not match '${EXPECT_OUTPUT}'")
endif()
