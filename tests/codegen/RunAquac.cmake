# Runs aquac on one source file and checks the outcome; a ctest wrapper for
# the compiler binary itself (tests/codegen/CMakeLists.txt).
#
#   cmake -DAQUAC=<aquac> -DINPUT=<file.assay> [-DARGS=<flags;...>]
#         -DEXPECT_EXIT=<code> [-DGOLDEN=<file>] [-DEXPECT_STDERR=<regex>]
#         -P RunAquac.cmake
#
# GOLDEN: stdout must equal the file byte for byte. EXPECT_STDERR: stderr
# must match the regex. A crash never passes: the exit status must be
# exactly EXPECT_EXIT, and a signal reports a non-numeric status.
execute_process(
  COMMAND ${AQUAC} ${INPUT} ${ARGS}
  RESULT_VARIABLE Status
  OUTPUT_VARIABLE Stdout
  ERROR_VARIABLE Stderr)
if(NOT "${Status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "aquac exited with '${Status}', expected ${EXPECT_EXIT}\nstderr:\n${Stderr}")
endif()
if(DEFINED GOLDEN)
  file(READ ${GOLDEN} Expected)
  if(NOT Stdout STREQUAL Expected)
    message(FATAL_ERROR
      "aquac stdout differs from ${GOLDEN}:\n${Stdout}")
  endif()
endif()
if(DEFINED EXPECT_STDERR AND NOT Stderr MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
    "aquac stderr does not match '${EXPECT_STDERR}':\n${Stderr}")
endif()
