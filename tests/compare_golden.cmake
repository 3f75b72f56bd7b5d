# Writes the analysis report with BENCH and compares it with GOLDEN byte for
# byte. Run as: cmake -DBENCH=... -DGOLDEN=... -DREPORT=... -P this file.
execute_process(
  COMMAND "${BENCH}" --no-json --analysis-json "${REPORT}"
  RESULT_VARIABLE bench_rc
  OUTPUT_QUIET)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${bench_rc}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${REPORT}" "${GOLDEN}"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR
    "${REPORT} differs from the golden ${GOLDEN}; "
    "compare them with diff, and regenerate the golden only if the change "
    "is intended (see tests/CMakeLists.txt)")
endif()
