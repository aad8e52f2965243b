# image_e2e.cmake -- multi-step snapshot-image e2e harness.
#
# expect_exit.cmake runs exactly one command and can only materialize text
# fixtures; the image tests need a pipeline -- write a real image, corrupt
# its *binary* contents, then assert --verify-image's exact exit code:
#
#   cmake -DFSCK=<poptrie_fsck> -DIMG=<path> -DMODE=<mode> -DEXPECT=<code>
#         [-DSAVE_ARGS=<a|b|c>] [-DSAVE_EXPECT=<code>] [-DEXPECT_OUTPUT=<regex>]
#         [-DPYTHON3=<python> -DCORRUPT=<corrupt_file.py>]  -P image_e2e.cmake
#
# MODE 'none' skips corruption (clean round trip, or an image saved from a
# FIB with an --inject-fault already in it); any other MODE is handed to
# corrupt_file.py, which needs PYTHON3 + CORRUPT. SAVE_EXPECT (default 0)
# is the expected exit of the --save-image run: saving a deliberately
# faulted FIB exits 1 from its own audit while still writing the image.
# EXPECT_OUTPUT, when given, is a regex the --verify-image output (stdout and
# stderr) must match, so a test can demand one specific rejection rather
# than any exit 1.

if(NOT DEFINED FSCK OR NOT DEFINED IMG OR NOT DEFINED MODE OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "image_e2e.cmake needs -DFSCK, -DIMG, -DMODE and -DEXPECT")
endif()
if(NOT DEFINED SAVE_EXPECT)
  set(SAVE_EXPECT 0)
endif()

file(REMOVE "${IMG}")
string(REPLACE "|" ";" SAVE_ARGS "${SAVE_ARGS}")
execute_process(COMMAND ${FSCK} ${SAVE_ARGS} --save-image ${IMG} RESULT_VARIABLE code)
if(NOT code EQUAL SAVE_EXPECT)
  message(FATAL_ERROR "--save-image: expected exit ${SAVE_EXPECT}, got '${code}'")
endif()
if(NOT EXISTS "${IMG}")
  message(FATAL_ERROR "--save-image exited ${code} but wrote no image at ${IMG}")
endif()

if(NOT MODE STREQUAL "none")
  if(NOT DEFINED PYTHON3 OR NOT DEFINED CORRUPT)
    message(FATAL_ERROR "MODE '${MODE}' needs -DPYTHON3 and -DCORRUPT")
  endif()
  execute_process(COMMAND ${PYTHON3} ${CORRUPT} ${MODE} ${IMG} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "corrupt_file.py ${MODE} failed with '${code}'")
  endif()
endif()

execute_process(COMMAND ${FSCK} --verify-image ${IMG} RESULT_VARIABLE code
  OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("${out}")
if(NOT code EQUAL EXPECT)
  message(FATAL_ERROR
    "--verify-image after '${MODE}': expected exit ${EXPECT}, got '${code}'")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR
    "--verify-image after '${MODE}': output does not match '${EXPECT_OUTPUT}'")
endif()
