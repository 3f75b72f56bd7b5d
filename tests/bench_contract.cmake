# Checks one output contract of a jgre_bench bench. Run as:
#   cmake -DBENCH=<jgre_bench> -DNAME=<bench> -DOUT=<path> [-DARGS="..."]
#         [-DOUTPUT_FLAG=<flag>] [-DGOLDEN=<file>]
#         [-DPYTHON=<python3> -DVALIDATOR=<script> [-DVALIDATOR_ARGS="..."]]
#         -P bench_contract.cmake
#
# Each run is `BENCH NAME ARGS ... OUTPUT_FLAG <file>`; OUTPUT_FLAG defaults
# to --json.
#   * Without GOLDEN, the determinism contract: the bench runs at --jobs 1
#     and at --jobs 2, writing OUT.jobs1 and OUT.jobs2, which must be byte
#     for byte identical.
#   * With GOLDEN: the bench runs once, writing OUT, which must equal GOLDEN.
# Then, if VALIDATOR is set, PYTHON runs it on the output file (first
# argument) with VALIDATOR_ARGS.
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

if(GOLDEN)
  set(checked "${OUT}")
  run_bench("${checked}")
  require_same_bytes("${checked}" "${GOLDEN}" "compare them with diff, and \
regenerate the golden only if the change is intended (see tests/CMakeLists.txt)")
else()
  set(checked "${OUT}.jobs1")
  run_bench("${checked}" --jobs 1)
  run_bench("${OUT}.jobs2" --jobs 2)
  require_same_bytes("${OUT}.jobs2" "${checked}"
    "the output must be byte-identical for any --jobs")
endif()

if(VALIDATOR)
  execute_process(
    COMMAND "${PYTHON}" "${VALIDATOR}" "${checked}" ${validator_args}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${VALIDATOR} rejected ${checked}")
  endif()
endif()
