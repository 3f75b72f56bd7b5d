# Runs `BENCH ARGS` and requires its exit code to be EXPECT. Run as:
#   cmake -DBENCH=<exe> [-DARGS="..."] -DEXPECT=<code> [-DLISTED=a,b,...]
#         [-DABSENT=<path>] -P expect_exit.cmake
#
# LISTED: each name must appear in the output (stdout + stderr) as a line
# `  <name> ...`, as in jgre_bench's list of benches.
# ABSENT: the run must leave no file at this path.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(ABSENT)
  file(REMOVE "${ABSENT}")
endif()
execute_process(
  COMMAND "${BENCH}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "`${BENCH} ${ARGS}` exited with ${rc}, want ${EXPECT}:\n${out}")
endif()
string(REPLACE "," ";" listed "${LISTED}")
foreach(name IN LISTS listed)
  if(NOT out MATCHES "\n  ${name} ")
    message(FATAL_ERROR "`${BENCH} ${ARGS}` does not list ${name}:\n${out}")
  endif()
endforeach()
if(ABSENT AND EXISTS "${ABSENT}")
  message(FATAL_ERROR "`${BENCH} ${ARGS}` wrote ${ABSENT}")
endif()
