# Gates the hot-path perf report against its regression floors. Run as:
#   cmake -DBENCH=<jgre_bench> -DOUT=<report path> -DPYTHON=<python3>
#         -DVALIDATOR=<validate_perf_report.py> -DFLOOR=<perf_floor.json>
#         -P perf_floor.cmake
#
# `jgre_bench micro_hotpaths` writes the report, then the validator checks
# its schema and that no hot path is slower than its floor.
execute_process(
  COMMAND "${BENCH}" micro_hotpaths --json "${OUT}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "jgre_bench micro_hotpaths exited with ${rc}")
endif()
execute_process(
  COMMAND "${PYTHON}" "${VALIDATOR}" "${OUT}" --floor "${FLOOR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${VALIDATOR} rejected ${OUT} against ${FLOOR}")
endif()
