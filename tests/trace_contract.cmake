# Checks the trace contract of a jgre_bench bench. Run as:
#   cmake -DBENCH=<jgre_bench> -DNAME=<bench> -DOUT=<path prefix>
#         [-DPYTHON=<python3> -DVALIDATOR=<validate_obs_json.py>
#          -DREQUIRE_CATS=<cats>] -P trace_contract.cmake
#
# The bench runs twice with its default seed: at --jobs 2 with --trace,
# --metrics and --json, and at --jobs 1 with --trace only. The two Chrome
# traces must be byte-identical (same seed, same bytes, any --jobs, with or
# without the metrics view). Then, if VALIDATOR is set, PYTHON runs it on the
# first run's trace and bench JSON, requiring the REQUIRE_CATS categories.
function(run_bench)
  execute_process(
    COMMAND "${BENCH}" ${NAME} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "jgre_bench ${NAME} ${ARGN} exited with ${rc}")
  endif()
endfunction()

run_bench(--jobs 2 --trace "${OUT}.trace1.json" --metrics
  --json "${OUT}.bench.json")
run_bench(--jobs 1 --trace "${OUT}.trace2.json" --no-json)
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}.trace1.json"
    "${OUT}.trace2.json"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "${OUT}.trace1.json differs from ${OUT}.trace2.json: "
    "the trace must be byte-identical for any --jobs")
endif()

if(VALIDATOR)
  execute_process(
    COMMAND "${PYTHON}" "${VALIDATOR}" --trace "${OUT}.trace1.json"
      --require-cats "${REQUIRE_CATS}" --bench "${OUT}.bench.json"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${VALIDATOR} rejected ${OUT}.trace1.json or "
      "${OUT}.bench.json")
  endif()
endif()
