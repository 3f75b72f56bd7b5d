# Checks one output contract of a jgre_bench bench. Run as:
#   cmake -DBENCH=<jgre_bench> -DNAME=<bench> -DOUT=<path> [-DARGS="..."]
#         [-DOUTPUT_FLAG=<flag>] [-DGOLDEN=<file>]
#         [-DPYTHON=<python3> -DVALIDATOR=<script> [-DVALIDATOR_ARGS="..."]
#          [-DCOMPARE_FLAG=<flag>]]
#         -P bench_contract.cmake
#
# Each run is `BENCH NAME ARGS ... OUTPUT_FLAG <file>`; OUTPUT_FLAG defaults
# to --json.
#   * Without GOLDEN, the determinism contract: the bench runs at --jobs 1
#     and at --jobs 2, writing OUT.jobs1 and OUT.jobs2, which must be byte
#     for byte identical — or, with COMPARE_FLAG (for outputs that carry
#     wall-clock fields next to the deterministic ones), which the validator
#     must accept as equal: `PYTHON VALIDATOR COMPARE_FLAG OUT.jobs1
#     OUT.jobs2`.
#   * With GOLDEN: the bench runs at --jobs 1 and at --jobs 2, writing
#     OUT.jobs1 and OUT.jobs2, which must both equal GOLDEN byte for byte.
# Then, if VALIDATOR is set, PYTHON runs it on the output file (first
# argument) with VALIDATOR_ARGS, before any COMPARE_FLAG comparison.
if(NOT OUTPUT_FLAG)
  set(OUTPUT_FLAG --json)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(validator_args UNIX_COMMAND "${VALIDATOR_ARGS}")

function(run_bench out)
  execute_process(
    COMMAND "${BENCH}" ${NAME} ${args} ${ARGN} ${OUTPUT_FLAG} "${out}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "jgre_bench ${NAME} ${ARGS} ${ARGN} exited with ${rc}")
  endif()
endfunction()

function(require_same_bytes actual expected hint)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${actual}" "${expected}"
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${actual} differs from ${expected}; ${hint}")
  endif()
endfunction()

set(checked "${OUT}.jobs1")
run_bench("${checked}" --jobs 1)
run_bench("${OUT}.jobs2" --jobs 2)
if(GOLDEN)
  foreach(jobs 1 2)
    require_same_bytes("${OUT}.jobs${jobs}" "${GOLDEN}" "compare them with \
diff, and regenerate the golden only if the change is intended (see \
tests/CMakeLists.txt)")
  endforeach()
else()
  if(NOT COMPARE_FLAG)
    require_same_bytes("${OUT}.jobs2" "${checked}"
      "the output must be byte-identical for any --jobs")
  elseif(NOT VALIDATOR)
    message(FATAL_ERROR "COMPARE_FLAG needs PYTHON and VALIDATOR")
  endif()
endif()

if(VALIDATOR)
  execute_process(
    COMMAND "${PYTHON}" "${VALIDATOR}" "${checked}" ${validator_args}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${VALIDATOR} rejected ${checked}")
  endif()
  if(COMPARE_FLAG)
    execute_process(
      COMMAND "${PYTHON}" "${VALIDATOR}" ${COMPARE_FLAG} "${checked}"
        "${OUT}.jobs2"
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${VALIDATOR} ${COMPARE_FLAG}: the deterministic \
fields of ${checked} and ${OUT}.jobs2 must be equal for any --jobs")
    endif()
  endif()
endif()
